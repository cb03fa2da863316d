package planner

import (
	"math"
	"sync"
	"testing"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/metrics"
	"mb2/internal/modeling"
	"mb2/internal/plan"
	"mb2/internal/runner"
	"mb2/internal/storage"
	"mb2/internal/workload"
)

var (
	modelsOnce sync.Once
	testModels *modeling.ModelSet
)

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

func scanDB(t *testing.T, rows int) (*engine.DB, []runner.QueryTemplate) {
	t.Helper()
	db := engine.Open(catalog.DefaultKnobs())
	schema := catalog.NewSchema(
		catalog.Column{Name: "id", Type: catalog.Int64},
		catalog.Column{Name: "grp", Type: catalog.Int64},
	)
	if _, err := db.CreateTable("t", schema); err != nil {
		t.Fatal(err)
	}
	data := make([]storage.Tuple, rows)
	for i := range data {
		data[i] = storage.Tuple{storage.NewInt(int64(i)), storage.NewInt(int64(i % 50))}
	}
	if err := db.BulkLoad("t", data); err != nil {
		t.Fatal(err)
	}
	templates := []runner.QueryTemplate{
		{Name: "scan", Plan: &plan.SeqScanNode{Table: "t",
			Filter: plan.Cmp{Op: plan.LT, L: plan.Col(0), R: plan.IntConst(int64(rows / 2))},
			Rows:   plan.Estimates{Rows: float64(rows) / 2}}},
	}
	return db, templates
}

// TestEvaluateModeChangeThreeWay: for a scan-heavy forecast the full
// three-way decision must pick vectorized (batch kernels amortize away the
// per-tuple interpretation the other modes pay), while the two-mode
// restriction preserves the paper's original compiled-beats-interpreted
// decision.
func TestEvaluateModeChangeThreeWay(t *testing.T) {
	ms := sharedModels(t)
	db, templates := scanDB(t, 4000)
	p := New(db, ms)
	f := modeling.IntervalForecast{
		Queries:    []modeling.ForecastQuery{{Plan: templates[0].Plan, Count: 10}},
		IntervalUS: 100000,
		Threads:    2,
	}
	d, err := p.EvaluateModeChange(f)
	if err != nil {
		t.Fatal(err)
	}
	if d.Best != catalog.Vectorize {
		t.Fatalf("vectorized mode must win for scans: %+v", d)
	}
	if d.PredictedReduction <= 0.1 {
		t.Fatalf("mode gap too small: %v", d.PredictedReduction)
	}
	// All three latencies populated and ordered: vec < compiled < interpreted.
	if !(d.VectorizeLatencyUS > 0 && d.VectorizeLatencyUS < d.CompileLatencyUS &&
		d.CompileLatencyUS < d.InterpretLatencyUS) {
		t.Fatalf("latency ordering wrong: %+v", d)
	}
	// Switching away from interpreted buys at least as much as from compiled.
	if !(d.ReductionFrom(catalog.Interpret) >= d.ReductionFrom(catalog.Compile) &&
		d.ReductionFrom(catalog.Compile) > 0) {
		t.Fatalf("reductions inconsistent: %+v", d)
	}
	if d.ReductionFrom(catalog.Vectorize) != 0 {
		t.Fatal("best mode must report zero self-reduction")
	}

	// The pinned two-mode evaluation reproduces the original decision.
	d2, err := p.EvaluateModeChangeAmong(f, catalog.Interpret, catalog.Compile)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Best != catalog.Compile {
		t.Fatalf("compiled mode must win the two-way decision: %+v", d2)
	}
	if d2.VectorizeLatencyUS != 0 {
		t.Fatalf("unevaluated mode got a latency: %+v", d2)
	}
	if d2.ReductionFrom(catalog.Vectorize) != 0 {
		t.Fatal("unevaluated mode must report zero reduction")
	}
	if d2.PredictedReduction <= 0.1 {
		t.Fatalf("two-way mode gap too small: %v", d2.PredictedReduction)
	}
}

// TestModeDecisionTieBreaks pins the three-way ranking rules with literal
// latencies: minimum predicted latency wins, exact ties break by the fixed
// preference order (compiled, then vectorized, then interpreted), and the
// predicted reduction is measured against the runner-up candidate.
func TestModeDecisionTieBreaks(t *testing.T) {
	all := []catalog.ExecutionMode{catalog.Interpret, catalog.Compile, catalog.Vectorize}
	cases := []struct {
		name              string
		interp, comp, vec float64
		among             []catalog.ExecutionMode
		wantBest          catalog.ExecutionMode
		wantReduction     float64
	}{
		{"vec-wins", 100, 60, 30, all, catalog.Vectorize, 0.5},
		{"compile-wins", 100, 40, 80, all, catalog.Compile, 0.5},
		{"interpret-wins", 20, 40, 80, all, catalog.Interpret, 0.5},
		{"three-way-tie-prefers-compile", 50, 50, 50, all, catalog.Compile, 0},
		{"vec-compile-tie-prefers-compile", 90, 50, 50, all, catalog.Compile, 0},
		{"vec-interpret-tie-prefers-vec", 50, 90, 50, all, catalog.Vectorize, 0},
		{"all-zero-degenerate", 0, 0, 0, all, catalog.Compile, 0},
		{"two-way-ignores-vec", 100, 80, 1,
			[]catalog.ExecutionMode{catalog.Interpret, catalog.Compile}, catalog.Compile, 0.2},
		{"single-candidate", 100, 1, 1,
			[]catalog.ExecutionMode{catalog.Interpret}, catalog.Interpret, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := ModeDecision{
				InterpretLatencyUS: tc.interp,
				CompileLatencyUS:   tc.comp,
				VectorizeLatencyUS: tc.vec,
			}
			d.decide(tc.among)
			if d.Best != tc.wantBest {
				t.Fatalf("best = %v, want %v (%+v)", d.Best, tc.wantBest, d)
			}
			if math.Abs(d.PredictedReduction-tc.wantReduction) > 1e-12 {
				t.Fatalf("reduction = %v, want %v", d.PredictedReduction, tc.wantReduction)
			}
			// Determinism: re-deciding yields the identical outcome.
			d2 := d
			d2.decide(tc.among)
			if d2.Best != d.Best || d2.PredictedReduction != d.PredictedReduction {
				t.Fatalf("decision not stable: %+v vs %+v", d, d2)
			}
		})
	}
}

func TestEvaluateIndexBuildCostImpactBenefit(t *testing.T) {
	ms := sharedModels(t)
	b := workload.TPCC{CustomersPerDistrict: 500}
	db := engine.Open(catalog.DefaultKnobs())
	if err := b.Load(db, 1, 1); err != nil {
		t.Fatal(err)
	}
	p := New(db, ms)

	forecast := func(force bool) modeling.IntervalForecast {
		bb := b
		bb.ForceCustomerIndex = &force
		f := modeling.IntervalForecast{IntervalUS: 100000, Threads: 2}
		for _, q := range bb.Templates(db, 1) {
			f.Queries = append(f.Queries, modeling.ForecastQuery{Plan: q.Plan, Count: 5})
		}
		return f
	}
	action := modeling.IndexBuildAction{
		Table: "customer", KeyCols: workload.CustomerSecondaryKeyCols(), Threads: 4,
	}
	d, err := p.EvaluateIndexBuild(catalog.Interpret, action, forecast(false), forecast(true))
	if err != nil {
		t.Fatal(err)
	}
	if d.BuildTimeUS <= 0 || d.BuildCPUUS <= 0 || d.BuildMemoryBytes <= 0 {
		t.Fatalf("cost estimates missing: %+v", d)
	}
	if d.ImpactRatio < 1 {
		t.Fatalf("build must not speed the workload up: %v", d.ImpactRatio)
	}
	if d.BenefitRatio >= 1 {
		t.Fatalf("index must predict a benefit: %v", d.BenefitRatio)
	}
	if d.String() == "" {
		t.Fatal("decision must render")
	}
}

func TestChooseIndexThreadsTradeoff(t *testing.T) {
	ms := sharedModels(t)
	b := workload.TPCC{CustomersPerDistrict: 500}
	db := engine.Open(catalog.DefaultKnobs())
	if err := b.Load(db, 1, 1); err != nil {
		t.Fatal(err)
	}
	p := New(db, ms)
	force := false
	bb := b
	bb.ForceCustomerIndex = &force
	f := modeling.IntervalForecast{IntervalUS: 100000, Threads: 2}
	for _, q := range bb.Templates(db, 1) {
		f.Queries = append(f.Queries, modeling.ForecastQuery{Plan: q.Plan, Count: 5})
	}
	action := modeling.IndexBuildAction{
		Table: "customer", KeyCols: workload.CustomerSecondaryKeyCols(),
	}
	all, best, err := p.ChooseIndexThreads(catalog.Interpret, action, []int{1, 4, 8}, f, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 || best == nil {
		t.Fatalf("decisions missing: %v %v", all, best)
	}
	// More threads must predict shorter builds.
	if !(all[2].BuildTimeUS < all[1].BuildTimeUS && all[1].BuildTimeUS < all[0].BuildTimeUS) {
		t.Fatalf("build time must fall with threads: %v / %v / %v",
			all[0].BuildTimeUS, all[1].BuildTimeUS, all[2].BuildTimeUS)
	}
	// With no impact budget, the fastest build wins.
	if best.Threads != 8 {
		t.Fatalf("best = %+v", best)
	}
}

// partitionedScanDB builds a database whose table is hash-partitioned at
// the given count (ScanDOP stays at the serial default).
func partitionedScanDB(t *testing.T, rows, parts int) *engine.DB {
	t.Helper()
	knobs := catalog.DefaultKnobs()
	knobs.PartitionCount = parts
	db := engine.Open(knobs)
	schema := catalog.NewSchema(
		catalog.Column{Name: "id", Type: catalog.Int64},
		catalog.Column{Name: "grp", Type: catalog.Int64},
	)
	if _, err := db.CreateTable("t", schema); err != nil {
		t.Fatal(err)
	}
	data := make([]storage.Tuple, rows)
	for i := range data {
		data[i] = storage.Tuple{storage.NewInt(int64(i)), storage.NewInt(int64(i % 50))}
	}
	if err := db.BulkLoad("t", data); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestPlanActionsRanksAllFourFamilies: from a live state of 4 partitions at
// DOP 1, the planner must surface all four action families in one ranked
// list — the mode flip (compiled beats interpreted for scans), an index
// build for the hot equality predicate, a DOP raise (parallelism is free
// win at 4 partitions), and a repartition (at DOP 1 the partition brackets
// and merge are pure overhead, so fewer partitions predict lower latency).
func TestPlanActionsRanksAllFourFamilies(t *testing.T) {
	ms := sharedModels(t)
	db := partitionedScanDB(t, 4000, 4)
	p := New(db, ms)
	f := modeling.IntervalForecast{
		Queries: []modeling.ForecastQuery{
			{Plan: &plan.SeqScanNode{Table: "t",
				Filter: plan.Cmp{Op: plan.LT, L: plan.Col(0), R: plan.IntConst(2000)},
				Rows:   plan.Estimates{Rows: 2000}}, Count: 10},
			{Plan: &plan.SeqScanNode{Table: "t",
				Filter: plan.Cmp{Op: plan.EQ, L: plan.Col(1), R: plan.IntConst(7)},
				Rows:   plan.Estimates{Rows: 80}}, Count: 10},
		},
		IntervalUS: 100000,
		Threads:    2,
	}
	actions, err := p.PlanActions(catalog.Interpret, f, CandidateConfig{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[ActionKind]Action{}
	for _, a := range actions {
		if a.PredictedImprovement <= 0 {
			t.Fatalf("action with no predicted improvement survived: %v", a)
		}
		if _, ok := seen[a.Kind]; !ok {
			seen[a.Kind] = a
		}
		if a.String() == "" {
			t.Fatal("action must render")
		}
	}
	for _, k := range []ActionKind{ActionModeChange, ActionIndexBuild, ActionRepartition, ActionSetDOP} {
		if _, ok := seen[k]; !ok {
			t.Fatalf("action family %v missing from ranked list %v", k, actions)
		}
	}
	for i := 1; i < len(actions); i++ {
		if actions[i].PredictedImprovement > actions[i-1].PredictedImprovement {
			t.Fatalf("actions not sorted by improvement at %d: %v", i, actions)
		}
	}
	if a := seen[ActionSetDOP]; a.DOP < 2 || a.KnobDecision == nil {
		t.Fatalf("set-dop action malformed: %+v", a)
	}
	if a := seen[ActionRepartition]; a.Partitions == 4 || a.Partitions < 1 || a.KnobDecision == nil {
		t.Fatalf("repartition action malformed: %+v", a)
	}
	// The knob decisions must carry consistent latency pairs.
	for _, k := range []ActionKind{ActionRepartition, ActionSetDOP} {
		d := seen[k].KnobDecision
		if d.BaselineLatencyUS <= 0 || d.AfterLatencyUS <= 0 || d.AfterLatencyUS >= d.BaselineLatencyUS {
			t.Fatalf("%v decision inconsistent: %+v", k, d)
		}
	}
}

// TestApplyKnobActions: applying repartition and set-dop actions must change
// the engine's live state (knobs and physical partition directories).
func TestApplyKnobActions(t *testing.T) {
	ms := sharedModels(t)
	db := partitionedScanDB(t, 500, 1)
	p := New(db, ms)
	if h, err := p.Apply(Action{Kind: ActionRepartition, Partitions: 4}, nil); err != nil || h != nil {
		t.Fatalf("repartition apply: handle=%v err=%v", h, err)
	}
	if got := db.Table("t").PartitionCount(); got != 4 {
		t.Fatalf("table not repartitioned: %d", got)
	}
	if got := db.Knobs().PartitionCount; got != 4 {
		t.Fatalf("knob not updated: %d", got)
	}
	if err := db.Table("t").CheckPartitionInvariants(); err != nil {
		t.Fatal(err)
	}
	if h, err := p.Apply(Action{Kind: ActionSetDOP, DOP: 2}, nil); err != nil || h != nil {
		t.Fatalf("set-dop apply: handle=%v err=%v", h, err)
	}
	if got := db.Knobs().ScanDOP; got != 2 {
		t.Fatalf("scan dop knob = %d", got)
	}
	if _, err := p.Apply(Action{Kind: ActionRepartition}, nil); err == nil {
		t.Fatal("zero-partition repartition must error")
	}
	if _, err := p.Apply(Action{Kind: ActionSetDOP}, nil); err == nil {
		t.Fatal("zero-dop set-dop must error")
	}
}

func TestSimulateBuildLifecycle(t *testing.T) {
	_ = sharedModels(t)
	db, templates := scanDB(t, 3000)
	ccfg := runner.DefaultConcurrentConfig()
	ccfg.IntervalUS = 300
	res, err := Simulate(SimConfig{
		DB:         db,
		Concurrent: ccfg,
		Threads:    2,
		Intervals:  20,
		WorkloadAt: func(i int, built bool) (*engine.DB, []runner.QueryTemplate, int) {
			return db, templates, 2
		},
		BuildStart:   3,
		BuildThreads: 2,
		IndexName:    "t_grp",
		IndexTable:   "t",
		IndexCols:    []string{"grp"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Intervals) != 20 {
		t.Fatalf("intervals = %d", len(res.Intervals))
	}
	if res.BuildStartUS != 3*300 {
		t.Fatalf("build start = %v", res.BuildStartUS)
	}
	if res.BuildEndUS <= res.BuildStartUS {
		t.Fatal("build never completed")
	}
	if db.Index("t_grp") == nil {
		t.Fatal("index not published under its real name")
	}
	if db.Index("t_grp"+catalog.BuildingSuffix) != nil {
		t.Fatal("private build name must be gone")
	}
	// Build CPU shows up only while building.
	sawBuild := false
	for _, iv := range res.Intervals {
		if iv.Building && iv.BuildCPUUtil > 0 {
			sawBuild = true
		}
		if !iv.Building && !iv.IndexBuilt && iv.BuildCPUUtil > 0 {
			t.Fatal("build CPU before the build started")
		}
	}
	if !sawBuild {
		t.Fatal("build CPU never recorded")
	}
	// Template CPU attribution covers the workload.
	if res.Intervals[0].CPUByTemplate["scan"] <= 0 {
		t.Fatal("per-template CPU missing")
	}
}

func TestSimulateNoAction(t *testing.T) {
	_ = sharedModels(t)
	db, templates := scanDB(t, 1000)
	ccfg := runner.DefaultConcurrentConfig()
	ccfg.IntervalUS = 500
	res, err := Simulate(SimConfig{
		DB:         db,
		Concurrent: ccfg,
		Threads:    2,
		Intervals:  4,
		WorkloadAt: func(i int, built bool) (*engine.DB, []runner.QueryTemplate, int) {
			return db, templates, 1
		},
		BuildStart: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, iv := range res.Intervals {
		if iv.Building || iv.IndexBuilt || iv.BuildCPUUtil != 0 {
			t.Fatalf("phantom build: %+v", iv)
		}
		if iv.AvgLatencyUS <= 0 {
			t.Fatal("latency missing")
		}
	}
}
