// Command benchmark is the repository's one repeatable benchmark: four
// seeded, closed-loop workloads of fixed operation counts through the real
// layers, three gated end-to-end metrics and the rounds' wall-clock numbers
// from untraced rounds, and per-layer metrics from a separate traced pass
// that wraps the layers' public calls in spans. See README.md in this
// directory.
//
// Usage:
//
//	go run ./benchmark -workload NAME -seed N [-seconds S] [-trace 0|1] [-trace-out FILE]
//	go run ./benchmark -selfcheck
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when
// an operation failed or an output check did not hold.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

var workloads = []*workload{oltpPoint, olapScan, mixedRW, selfdriveLoop}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: oltp_point, olap_scan, mixed_rw or selfdrive_loop")
	seed := flag.Uint64("seed", 1, "the only source of randomness")
	seconds := flag.Int("seconds", nominalSeconds, "nominal measured seconds; the frozen operation counts scale with it")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics instead of the end-to-end ones")
	traceOut := flag.String("trace-out", "", "span file of a traced run (default .bench_build/trace-WORKLOAD.json)")
	selfcheck := flag.Bool("selfcheck", false, "run every workload as two interleaved sets of 5 runs and compare the sets")
	corrupt := flag.Bool("corrupt", false, "falsify one expected result, to show that the output checks fail the run")
	flag.Parse()

	if *selfcheck {
		os.Exit(runSelfcheck(*seconds))
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q; have", *name)
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, " %s", w.name)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be at least 1 and -trace 0 or 1")
		os.Exit(2)
	}
	os.Exit(runOne(w, *seed, *seconds, *trace == 1, *traceOut, *corrupt))
}

// runOne runs one workload and prints its report; it returns the exit code.
func runOne(w *workload, seed uint64, seconds int, traced bool, traceOut string, corrupt bool) int {
	sc := fullScale(seconds)
	var tr *tracer
	if traced {
		// A traced run sets up once (setup_s comes from untraced runs only)
		// and runs the same untraced rounds before its traced pass.
		sc.setups = 1
		tr = newTracer()
	}
	sc.corrupt = corrupt
	fmt.Printf("workload %s seed %d seconds %d trace %v\n", w.name, seed, seconds, traced)
	fmt.Printf("host nproc=%d GOMAXPROCS=%d %s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Printf("frozen %s; warm-up 1/10 round, %d rounds of %d operations, %d set-ups, %d connections\n",
		w.sizes, sc.rounds, sc.ops(w.roundOps, conns), sc.setups, conns)

	res, err := runWorkload(os.Stdout, w, sc, seed, tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	defs, values := endToEnd, res.e2e
	if traced {
		defs, values = perLayer, res.layer
		if traceOut == "" {
			traceOut = filepath.Join(".bench_build", "trace-"+w.name+".json")
		}
		if err := tr.write(traceOut, w.name, seed); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: writing trace: %v\n", err)
			return 1
		}
		fmt.Printf("trace %s (%d spans)\n", traceOut, len(tr.spans))
	}
	line := resultLine{
		Correct:   res.checkErr == nil && res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		fmt.Printf("%-34s %16.4f %s\n", d.name, values[d.name], d.unit)
		line.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	if !traced {
		// Not gated, so not in the result line; see roundTimings.
		for _, d := range roundTimings {
			fmt.Printf("%-34s %16.4f %s\n", d.name, res.layer[d.name], d.unit)
		}
	}
	fmt.Printf("ops_attempted %d ops_failed %d\n", res.attempted, res.failed)
	if res.checkErr != nil {
		fmt.Printf("output check FAILED: %v\n", res.checkErr)
	} else {
		fmt.Println("output checks passed")
	}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if !line.Correct {
		return 1
	}
	return 0
}
