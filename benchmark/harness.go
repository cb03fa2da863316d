package main

import (
	"fmt"
	"io"
	"runtime"
	"time"
)

// Frozen sizing. Counts are constants, never derived from a clock: a run
// does the same work on every host and on every commit, so allocation,
// heap and every exact-count metric repeat, and timings are comparable.
// The op counts were sized once on the 2-core reference box so that one
// round takes a little over 2 s when the host is quiet; they are per
// nominalSeconds of -seconds and scale linearly with that flag (and nothing
// else).
const (
	// nominalSeconds is run_seconds in BENCHMARK.json.
	nominalSeconds = 16
	// fullRounds is R: the number of measured rounds after the warm-up.
	fullRounds = 7
	// fullSetups is how many complete set-ups a run times, each on a fresh
	// engine: setup_s is their median. A traced run sets up once.
	fullSetups = 3
	// conns is the client connection / session / job count: nproc on the
	// reference box. The generator never exceeds it.
	conns = 2
)

// scale turns the frozen full-size counts into the counts of one run. The
// smoke test runs at div=100 with two rounds; the command runs at div=1.
type scale struct {
	div     int // every table size and op count is divided by this
	rounds  int
	setups  int // complete set-ups timed; the last one is kept and measured
	seconds int // -seconds
	// corrupt falsifies one expected result, to show the checks bite.
	corrupt bool
}

func fullScale(seconds int) scale {
	return scale{div: 1, rounds: fullRounds, setups: fullSetups, seconds: seconds}
}

// ops scales a per-round operation count, rounded down to a multiple of
// mult (the connection count, or 1).
func (s scale) ops(count, mult int) int {
	n := count * s.seconds / nominalSeconds / s.div
	n -= n % mult
	if n < mult {
		n = mult
	}
	return n
}

// rows scales a table size; it does not depend on -seconds.
func (s scale) rows(count, mult int) int {
	n := count / s.div
	n -= n % mult
	if n < mult {
		n = mult
	}
	return n
}

// roundResult is what one round of a workload reports.
type roundResult struct {
	wall  time.Duration
	units int     // throughput numerator (operations; queries for selfdrive_loop)
	lat   []int64 // per-operation latency in ns, one per operation
}

// instance is one set-up of a workload, ready to run rounds.
type instance interface {
	// round runs ops operations closed-loop and reports them.
	round(ops int) (roundResult, error)
	// counts returns operations attempted and failed so far.
	counts() (attempted, failed int)
	// quiesce finishes pending background work (flush, sync, version GC)
	// after the last round, so the live heap is the data and nothing else.
	quiesce() error
	// check runs the workload's output checks after the last round.
	check() error
	// layers runs the traced pass and the isolated layer probes and
	// stores per-layer metrics in m.
	layers(tr *tracer, m map[string]float64) error
	close()
}

// workload is one benchmark workload.
type workload struct {
	name string
	why  string
	// roundOps is the frozen full-size operation count of one round.
	roundOps int
	// sizes echoes the frozen table sizes and counts.
	sizes string
	// setup builds a fresh instance. tr is non-nil only in a traced run.
	setup func(sc scale, seed uint64, tr *tracer, m map[string]float64) (instance, error)
}

// runResult is everything one run measured.
type runResult struct {
	attempted, failed int
	checkErr          error
	e2e               map[string]float64
	layer             map[string]float64
}

// runWorkload sets the workload up, warms it, runs the measured rounds and
// the checks, and in a traced run the traced pass. Progress goes to out.
func runWorkload(out io.Writer, w *workload, sc scale, seed uint64, tr *tracer) (runResult, error) {
	res := runResult{e2e: map[string]float64{}, layer: map[string]float64{}}
	ops := sc.ops(w.roundOps, conns)
	if w.roundOps <= 0 || ops <= 0 {
		return res, fmt.Errorf("workload %s: round operation count is unset; refusing to time-box", w.name)
	}

	var inst instance
	var setupS []float64
	for i := 0; i < sc.setups; i++ {
		if inst != nil {
			inst.close()
			inst = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		// Only the kept set-up is traced, so the discarded ones cost the
		// same as in an untraced run.
		var str *tracer
		if i == sc.setups-1 {
			str = tr
		}
		inst, err = w.setup(sc, seed, str, res.layer)
		if err != nil {
			return res, fmt.Errorf("set-up %d: %w", i, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		fmt.Fprintf(out, "set-up %d: %.4f s\n", i, setupS[i])
	}
	defer inst.close()
	res.e2e["setup_s"] = median(setupS)

	// Warm-up: one tenth of a round, discarded.
	if _, err := inst.round(sc.ops(w.roundOps/10, conns)); err != nil {
		return res, fmt.Errorf("warm-up: %w", err)
	}
	// attempted and failed count the measured rounds; a failure in the
	// warm-up still fails the run through check.
	warmAttempted, warmFailed := inst.counts()

	pool := make([]float64, 0, sc.rounds*ops)
	var perSec []float64
	var wallNS, measured int
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < sc.rounds; r++ {
		rr, err := inst.round(ops)
		if err != nil {
			return res, fmt.Errorf("round %d: %w", r, err)
		}
		perSec = append(perSec, float64(rr.units)/rr.wall.Seconds())
		for _, ns := range rr.lat {
			pool = append(pool, float64(ns)/1e3)
		}
		this := pool[len(pool)-len(rr.lat):]
		fmt.Fprintf(out, "round %d: %d operations in %.3f s, %.1f /s, p50 %.3f us, p90 %.3f us\n",
			r, len(rr.lat), rr.wall.Seconds(), perSec[r], percentile(this, 0.50), percentile(this, 0.90))
		wallNS += int(rr.wall)
		measured += len(rr.lat)
	}
	runtime.ReadMemStats(&after)
	res.layer["e2e.throughput_ops"] = median(perSec)
	res.layer["e2e.lat_p50_us"] = percentile(pool, 0.50)
	res.layer["e2e.lat_p90_us"] = percentile(pool, 0.90)
	res.layer["e2e.lat_p99_us"] = percentile(pool, 0.99)
	res.e2e["alloc_bytes_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(measured)
	pool = nil
	res.attempted, res.failed = inst.counts()
	res.attempted -= warmAttempted
	res.failed -= warmFailed

	if err := inst.quiesce(); err != nil {
		return res, fmt.Errorf("quiesce: %w", err)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	res.e2e["heap_after_gc_mb"] = float64(after.HeapAlloc) / (1 << 20)

	if tr != nil {
		res.layer["trace.untraced_op_us"] = float64(wallNS) / 1e3 / float64(measured)
		if err := inst.layers(tr, res.layer); err != nil {
			return res, fmt.Errorf("traced pass: %w", err)
		}
	}
	res.checkErr = inst.check()
	return res, nil
}
