package selfdrive

import (
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"mb2/internal/catalog"
	"mb2/internal/check"
	"mb2/internal/engine"
	"mb2/internal/hw"
	"mb2/internal/metrics"
	"mb2/internal/modeling"
	"mb2/internal/planner"
	"mb2/internal/runner"
	"mb2/internal/session"
)

var (
	modelsOnce sync.Once
	testModels *modeling.ModelSet
)

// applied reports whether the run applied an action of the given kind.
func applied(r *Result, kind string) bool {
	return slices.ContainsFunc(r.Actions, func(a AppliedAction) bool { return a.Kind == kind })
}

// sharedModels trains a small OU-model set once for the package.
func sharedModels(t *testing.T) *modeling.ModelSet {
	t.Helper()
	modelsOnce.Do(func() {
		cfg := runner.DefaultConfig()
		cfg.MaxRows = 1024
		cfg.Repetitions = 2
		cfg.Warmups = 1
		repo := metrics.NewRepository()
		runner.RunAll(repo, cfg)
		opts := modeling.DefaultTrainOptions()
		opts.Candidates = []string{"huber", "gbm"}
		ms, err := modeling.TrainModelSet(repo, opts)
		if err != nil {
			panic(err)
		}
		testModels = ms
	})
	if testModels == nil {
		t.Fatal("model training failed")
	}
	return testModels
}

// stripWall zeroes the wall-clock fields, which legitimately differ between
// runs; everything else must replay bit for bit.
func stripWall(reports []IntervalReport) []IntervalReport {
	out := append([]IntervalReport(nil), reports...)
	for i := range out {
		out[i].WallUS = 0
	}
	return out
}

// TestDriveLoopDeterministicReplay runs the full closed loop twice with the
// same seed and demands identical behavior: matching digests, action logs,
// and interval reports. It also checks the loop actually drove the system —
// at least one mode change and one index build chosen by the planner — and
// that its predicted-vs-observed accounting and prediction cache engaged.
func TestDriveLoopDeterministicReplay(t *testing.T) {
	ms := sharedModels(t)
	cfg := DefaultConfig()

	a, err := Run(cfg, ms)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, ms)
	if err != nil {
		t.Fatal(err)
	}

	if a.Digest != b.Digest {
		t.Fatalf("digest mismatch across same-seed runs: %#x vs %#x", a.Digest, b.Digest)
	}
	if !reflect.DeepEqual(a.Actions, b.Actions) {
		t.Fatalf("action logs differ:\n%v\nvs\n%v", a.Actions, b.Actions)
	}
	if !reflect.DeepEqual(stripWall(a.Intervals), stripWall(b.Intervals)) {
		t.Fatalf("interval reports differ:\n%v\nvs\n%v", stripWall(a.Intervals), stripWall(b.Intervals))
	}

	if len(a.Intervals) != cfg.Intervals {
		t.Fatalf("got %d interval reports, want %d", len(a.Intervals), cfg.Intervals)
	}
	if !applied(a, "mode-change") {
		t.Errorf("loop applied no mode change; actions: %v", a.Actions)
	}
	if !applied(a, "index-build-start") {
		t.Errorf("loop started no index build; actions: %v", a.Actions)
	}
	predicted := 0
	for _, rep := range a.Intervals {
		if rep.PredictedAvgLatencyUS > 0 {
			predicted++
			if rep.ObservedAvgLatencyUS <= 0 {
				t.Errorf("interval %d: predicted %.1fus but observed %.1fus",
					rep.Interval, rep.PredictedAvgLatencyUS, rep.ObservedAvgLatencyUS)
			}
		}
	}
	if predicted == 0 {
		t.Error("no interval carried a predicted latency")
	}
	if math.IsNaN(a.MAPE) || math.IsInf(a.MAPE, 0) {
		t.Errorf("MAPE not finite: %v", a.MAPE)
	}
	if a.CacheHitRate <= 0 {
		t.Errorf("prediction cache never hit: hits=%d misses=%d", a.CacheHits, a.CacheMisses)
	}
}

// TestDriveLoopJobsInvariance checks the serial-order reduction: the digest
// is identical whether sessions run serially or on a parallel worker pool.
func TestDriveLoopJobsInvariance(t *testing.T) {
	ms := sharedModels(t)
	cfg := DefaultConfig()
	cfg.Intervals = 6

	serial := cfg
	serial.Jobs = 1
	par4 := cfg
	par4.Jobs = 4

	a, err := Run(serial, ms)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(par4, ms)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Fatalf("digest differs across worker counts: %#x (serial) vs %#x (jobs=4)", a.Digest, b.Digest)
	}
	if !reflect.DeepEqual(a.Actions, b.Actions) {
		t.Fatalf("action logs differ across worker counts:\n%v\nvs\n%v", a.Actions, b.Actions)
	}
}

// TestDriveLoopSelectsPartitionActions: the acceptance run — a seeded
// 12-interval loop over a partitioned database must pick a DOP or
// repartition action through the what-if planner at least once, and the
// whole run must replay bit for bit.
func TestDriveLoopSelectsPartitionActions(t *testing.T) {
	ms := sharedModels(t)
	cfg := DefaultConfig()
	cfg.Partitions = 4

	a, err := Run(cfg, ms)
	if err != nil {
		t.Fatal(err)
	}
	if !applied(a, "set-dop") && !applied(a, "repartition") {
		t.Fatalf("no DOP/repartition action selected over %d intervals; actions: %v",
			cfg.Intervals, a.Actions)
	}
	if a.Intervals[0].Partitions != 4 {
		t.Fatalf("first interval ran with %d partitions, want 4", a.Intervals[0].Partitions)
	}
	if a.Intervals[0].DOP != 1 {
		t.Fatalf("first interval ran with dop %d, want serial start", a.Intervals[0].DOP)
	}
	// A set-dop action must be visible in subsequent interval reports.
	if applied(a, "set-dop") {
		raised := false
		for _, rep := range a.Intervals {
			raised = raised || rep.DOP > 1
		}
		if !raised {
			t.Fatalf("set-dop applied but no interval reports dop > 1: %v", a.Intervals)
		}
	}

	b, err := Run(cfg, ms)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Fatalf("partitioned drive digest not reproducible: %#x vs %#x", a.Digest, b.Digest)
	}
	if !reflect.DeepEqual(a.Actions, b.Actions) {
		t.Fatalf("action logs differ:\n%v\nvs\n%v", a.Actions, b.Actions)
	}
	if !reflect.DeepEqual(stripWall(a.Intervals), stripWall(b.Intervals)) {
		t.Fatal("interval reports differ across same-seed partitioned runs")
	}
}

// TestDriveLoopDigestInvariantAcrossJobsAndDOP is the determinism
// regression matrix: for each DOP in {1, 2, 4} over a partitioned database,
// the run digest and action log must be identical between a serial session
// pool (-j 1) and a parallel one (-j 8).
func TestDriveLoopDigestInvariantAcrossJobsAndDOP(t *testing.T) {
	ms := sharedModels(t)
	for _, dop := range []int{1, 2, 4} {
		cfg := DefaultConfig()
		cfg.Intervals = 6
		cfg.Partitions = 4
		cfg.DOP = dop

		serial := cfg
		serial.Jobs = 1
		par8 := cfg
		par8.Jobs = 8

		a, err := Run(serial, ms)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(par8, ms)
		if err != nil {
			t.Fatal(err)
		}
		if a.Digest != b.Digest {
			t.Fatalf("dop=%d: digest differs across worker counts: %#x (j=1) vs %#x (j=8)",
				dop, a.Digest, b.Digest)
		}
		if !reflect.DeepEqual(a.Actions, b.Actions) {
			t.Fatalf("dop=%d: action logs differ across worker counts:\n%v\nvs\n%v",
				dop, a.Actions, b.Actions)
		}
		if !reflect.DeepEqual(stripWall(a.Intervals), stripWall(b.Intervals)) {
			t.Fatalf("dop=%d: interval reports differ across worker counts", dop)
		}
	}
}

// TestDriveLoopSelectsVectorizedMode is the three-mode acceptance run: the
// seeded default loop must pick the vectorized execution mode through the
// planner (the drifting customer seq scans make it the three-way winner),
// subsequent intervals must actually run vectorized (batches processed,
// interval reports carrying the mode), and the whole run — including the
// vectorized pick — must replay bit for bit.
func TestDriveLoopSelectsVectorizedMode(t *testing.T) {
	ms := sharedModels(t)
	cfg := DefaultConfig()

	a, err := Run(cfg, ms)
	if err != nil {
		t.Fatal(err)
	}
	vecFlip := -1
	for _, act := range a.Actions {
		if act.Kind == "mode-change" && act.Detail == catalog.Vectorize.String() {
			vecFlip = act.Interval
			if act.PredictedImprovement <= 0 {
				t.Fatalf("vectorize flip promised no improvement: %+v", act)
			}
			break
		}
	}
	if vecFlip < 0 {
		t.Fatalf("loop never selected vectorized mode; actions: %v", a.Actions)
	}
	ranVec := false
	for _, rep := range a.Intervals {
		if rep.Interval > vecFlip && rep.Mode == catalog.Vectorize {
			ranVec = true
		}
	}
	if !ranVec {
		t.Fatalf("no interval after the flip ran vectorized: %v", a.Intervals)
	}
	if a.VecBatches == 0 {
		t.Fatal("vectorized intervals processed no column batches")
	}

	b, err := Run(cfg, ms)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Fatalf("vectorized run digest not reproducible: %#x vs %#x", a.Digest, b.Digest)
	}
	if !reflect.DeepEqual(a.Actions, b.Actions) {
		t.Fatalf("action logs differ:\n%v\nvs\n%v", a.Actions, b.Actions)
	}
	if a.VecBatches != b.VecBatches {
		t.Fatalf("vec batch counts differ across same-seed runs: %d vs %d", a.VecBatches, b.VecBatches)
	}
	if !reflect.DeepEqual(stripWall(a.Intervals), stripWall(b.Intervals)) {
		t.Fatal("interval reports differ across same-seed vectorized runs")
	}
}

// TestDriveLoopPublishesIndex runs long enough for a started build to
// finish and verifies the published index then serves the customer lookups
// (the interval reports flip IndexLive).
func TestDriveLoopPublishesIndex(t *testing.T) {
	ms := sharedModels(t)
	cfg := DefaultConfig()
	cfg.Intervals = 16

	res, err := Run(cfg, ms)
	if err != nil {
		t.Fatal(err)
	}
	if !applied(res, "index-build-start") {
		t.Skipf("planner chose no index build in this configuration; actions: %v", res.Actions)
	}
	if !applied(res, "index-publish") {
		t.Fatalf("build never published within %d intervals; actions: %v", cfg.Intervals, res.Actions)
	}
	live := false
	for _, rep := range res.Intervals {
		live = live || rep.IndexLive
	}
	if !live {
		t.Error("no interval reported a live index")
	}
}

// TestObservedLatencyIsThePerQuerySum replays Run's scenario over a
// controller, keeping every query's isolated metrics, and checks that each
// interval's observed latency — Tick's sum over the drained per-session
// load, each scaled by its session's contention ratios — equals the same
// scaling applied query by query, to rounding. The replay must report
// exactly what Run reports, so the check holds on Run's own path.
func TestObservedLatencyIsThePerQuerySum(t *testing.T) {
	ms := sharedModels(t)
	dop2 := DefaultConfig()
	dop2.Intervals, dop2.Partitions, dop2.DOP = 6, 4, 2
	for _, cfg := range []Config{DefaultConfig(), dop2} {
		want, err := Run(cfg, ms)
		if err != nil {
			t.Fatal(err)
		}
		cfg = cfg.withDefaults()
		sc, err := newScenario(cfg)
		if err != nil {
			t.Fatal(err)
		}
		knobs := catalog.DefaultKnobs()
		knobs.PartitionCount, knobs.ScanDOP = max(cfg.Partitions, 1), max(cfg.DOP, 1)
		db := engine.Open(knobs)
		if err := sc.tpcc.Load(db, 1, cfg.Seed); err != nil {
			t.Fatal(err)
		}
		reg := session.NewRegistry(db, 0)
		ctl := NewLiveController(reg, ms, cfg)
		ctl.rep = sc.repFor

		var got []IntervalReport
		for i := 0; i < cfg.Intervals; i++ {
			var load []hw.Metrics
			var isos [][]hw.Metrics
			var workers []*session.Session
			for s := 0; s < cfg.Sessions; s++ {
				w, err := reg.Open(session.Options{Contenders: float64(cfg.Sessions)})
				if err != nil {
					t.Fatal(err)
				}
				workers = append(workers, w)
				var sum hw.Metrics
				var per []hw.Metrics
				for _, q := range sc.sessionQueries(i, s, ctl.published) {
					_, iso, err := w.ExecPlan(q.name, 0, q.node)
					if err != nil {
						t.Fatal(err)
					}
					sum.Add(iso)
					per = append(per, iso)
				}
				load, isos = append(load, sum), append(isos, per)
			}
			if ctl.build != nil {
				load = append(load, ctl.build.Demand(cfg.IntervalUS)...)
			}
			ratios := db.Machine.ContentionRatios(load, cfg.IntervalUS)
			var latSum float64
			nq := 0
			for s, per := range isos {
				for _, iso := range per {
					latSum += iso.ScaleVec(ratios[s]).ElapsedUS
					nq++
				}
			}
			r, err := ctl.Tick()
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range workers {
				w.Close()
			}
			perQuery := latSum / float64(nq)
			if rel := math.Abs(r.ObservedAvgLatencyUS-perQuery) / perQuery; r.Queries != nq || rel > 1e-12 {
				t.Errorf("interval %d: %d queries observed at %v us, want %d at the per-query sum %v (relative error %g)",
					i, r.Queries, r.ObservedAvgLatencyUS, nq, perQuery, rel)
			}
			got = append(got, r)
		}
		if !reflect.DeepEqual(got, stripWall(want.Intervals)) {
			t.Fatalf("the replay reports\n%v\nbut Run reports\n%v", got, stripWall(want.Intervals))
		}
	}
}

// TestPredictedPromotionBeatsFixed drills failover where the fixed policy's
// target (replica 0) applies lazily and replica 1 eagerly. Pricing each
// replica's recovery with the trained models must mostly promote replica 1
// and lower the mean failover time, in simulated microseconds.
func TestPredictedPromotionBeatsFixed(t *testing.T) {
	ms := sharedModels(t)
	for _, seed := range []int64{1, 5, 7} {
		cfg := check.FailoverConfig{
			Seed: seed, Workload: "smallbank", Txns: 32, Stride: 101, FlushEvery: 3,
			Replicas: 2, ApplyEvery: []int{16, 1},
		}
		fixed, err := check.RunFailover(cfg)
		if err != nil {
			t.Fatalf("seed %d fixed: %v", seed, err)
		}
		cfg.Policy = "predicted"
		cfg.Predict = planner.New(nil, ms).PredictRecoveryUS
		predicted, err := check.RunFailover(cfg)
		if err != nil {
			t.Fatalf("seed %d predicted: %v", seed, err)
		}
		if predicted.MeanFailoverUS >= fixed.MeanFailoverUS {
			t.Errorf("seed %d: predicted promotion %.2f us does not beat fixed %.2f us",
				seed, predicted.MeanFailoverUS, fixed.MeanFailoverUS)
		}
		if p := predicted.Promotions; len(p) != 2 || p[1] <= p[0] {
			t.Errorf("seed %d: predicted promotions %v do not favour the eager replica", seed, p)
		}
	}
}
