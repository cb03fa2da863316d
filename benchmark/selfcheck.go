package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
)

// benchmarkFile is BENCHMARK.json at the root of the repository.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return bf, dec.Decode(&bf)
}

// exactLayer are the per-layer metrics that are counts of deterministic
// work: two traced runs of one seed must report them identically.
var exactLayer = []string{
	"wal.bytes_per_commit", "wal.log_bytes_per_user_byte", "wal.flushes",
	"engine.checkpoint_image_bytes",
	"runner.records", "modeling.cache_hit_rate", "forecast.volume_mape",
	"selfdrive.actions_applied", "selfdrive.pred_mape",
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (exclusive method).
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		i := int(pos)
		if i < 1 {
			return s[0]
		}
		if i >= len(s) {
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(1), at(2), at(3)
}

// child runs this binary once and parses its result line. The metrics an
// untraced run prints but does not gate (roundTimings) are read from its
// report and added to the line's metrics.
func child(args ...string) (resultLine, error) {
	var line resultLine
	exe, err := os.Executable()
	if err != nil {
		return line, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return line, fmt.Errorf("%v: %w", args, err)
	}
	report := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(report[len(report)-1], &line); err != nil {
		return line, fmt.Errorf("%v: result line: %w", args, err)
	}
	if !line.Correct || line.Failed != 0 {
		return line, fmt.Errorf("%v: correct=%v failed=%d", args, line.Correct, line.Failed)
	}
	for _, l := range report {
		var name, unit string
		var v float64
		if n, _ := fmt.Sscanf(string(l), "%s %g %s", &name, &v, &unit); n == 3 {
			for _, d := range roundTimings {
				if _, have := line.Metrics[name]; d.name == name && !have {
					line.Metrics[name] = metricValue{Value: v, Unit: unit}
				}
			}
		}
	}
	return line, nil
}

// runSelfcheck is the noise record: every workload runs as two interleaved
// sets of five runs (A B A B ...), each run with its own seed, and the two
// sets' medians of every end-to-end metric must agree within half the
// metric's bound. Two traced runs of one seed must agree exactly on the
// exact-count layer metrics. The output is Markdown (NOISE.md).
func runSelfcheck(seconds int) int {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: -selfcheck runs from the repository root: %v\n", err)
		return 2
	}
	fmt.Printf("# Noise record\n\n`go run ./benchmark -selfcheck` on nproc=%d GOMAXPROCS=%d %s, -seconds %d.\n\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), seconds)
	fmt.Println("Each workload: sets A and B of 5 runs each, interleaved A B A B ..., seeds 1..10.")
	fmt.Println("`spread` is (Q3-Q1)/median over all ten runs and must stay within the bound;")
	fmt.Println("`A vs B` is |median B - median A| / median A and must stay within half the bound.")
	fmt.Println("The `e2e.*` rows are the rounds' wall-clock numbers: reported, not gated, no bound.")
	fmt.Println()
	failed := false
	for _, w := range workloads {
		fmt.Printf("## %s\n\n", w.name)
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 10; i++ {
			line, err := child("-workload", w.name, "-seed", strconv.Itoa(i+1), "-seconds", strconv.Itoa(seconds))
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				return 1
			}
			for name, v := range line.Metrics {
				sets[i%2][name] = append(sets[i%2][name], v.Value)
			}
		}
		fmt.Println("| metric | unit | A median [Q1, Q3] | B median [Q1, Q3] | A vs B | spread | bound | |")
		fmt.Println("|---|---|---|---|---|---|---|---|")
		row := func(name, unit string, bound float64) {
			a1, a2, a3 := quartiles(sets[0][name])
			b1, b2, b3 := quartiles(sets[1][name])
			q1, q2, q3 := quartiles(append(append([]float64(nil), sets[0][name]...), sets[1][name]...))
			diff := math.Abs(b2-a2) / a2
			spread := (q3 - q1) / q2
			limit, verdict := "-", "not gated"
			if bound > 0 {
				limit, verdict = fmt.Sprintf("%.0f%%", 100*bound), "ok"
				if diff > bound/2 || spread > bound {
					verdict = "FAIL"
					failed = true
				}
			}
			fmt.Printf("| %s | %s | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | %.2f%% | %.2f%% | %s | %s |\n",
				name, unit, a2, a1, a3, b2, b1, b3, 100*diff, 100*spread, limit, verdict)
		}
		for _, m := range bf.EndToEnd {
			row(m.Name, m.Unit, m.Bound)
		}
		for _, d := range roundTimings {
			row(d.name, d.unit, 0)
		}
		fmt.Println()

		var traced [2]resultLine
		for i := range traced {
			traced[i], err = child("-workload", w.name, "-seed", "1", "-seconds", strconv.Itoa(seconds), "-trace", "1")
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				return 1
			}
		}
		fmt.Println("Exact-count layer metrics, two traced runs of seed 1:")
		fmt.Println()
		for _, name := range exactLayer {
			a, b := traced[0].Metrics[name].Value, traced[1].Metrics[name].Value
			if a == 0 && b == 0 {
				continue
			}
			verdict := "identical"
			if a != b {
				verdict = "DIFFER"
				failed = true
			}
			fmt.Printf("- `%s`: %v and %v: %s\n", name, a, b, verdict)
		}
		fmt.Printf("- `trace.overhead_pct`: %.2f and %.2f\n\n",
			traced[0].Metrics["trace.overhead_pct"].Value, traced[1].Metrics["trace.overhead_pct"].Value)
	}
	if failed {
		fmt.Println("RESULT: FAIL")
		return 1
	}
	fmt.Println("RESULT: every end-to-end metric's two set medians agree within half its bound and its spread is within the bound; exact-count metrics are identical.")
	return 0
}
