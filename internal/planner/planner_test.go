package planner

import (
	"math"
	"reflect"
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

// modeFlips prices a flip to each listed mode against the live one.
func modeFlips(t *testing.T, p *Planner, live catalog.ExecutionMode, f modeling.IntervalForecast,
	to ...catalog.ExecutionMode) []Action {
	t.Helper()
	var flips []Action
	for _, m := range to {
		flips = append(flips, Action{Kind: ActionModeChange, Mode: m})
	}
	var whatIfs []WhatIf
	for i := range flips {
		whatIfs = append(whatIfs, WhatIf{Actions: flips[i : i+1]})
	}
	if err := p.Price(live, f, whatIfs...); err != nil {
		t.Fatal(err)
	}
	return flips
}

// TestEvaluateModeChangeThreeWay: for a scan-heavy forecast vectorized is the
// cheapest mode (batch kernels amortize away the per-tuple interpretation
// the other modes pay) and compiled beats interpreted — the paper's
// original two-mode decision. Every flip is priced against the one live
// baseline.
func TestEvaluateModeChangeThreeWay(t *testing.T) {
	ms := sharedModels(t)
	db, templates := scanDB(t, 4000)
	p := New(db, ms)
	f := modeling.IntervalForecast{
		Queries:    []modeling.ForecastQuery{{Plan: templates[0].Plan, Count: 10}},
		IntervalUS: 100000,
		Threads:    2,
	}
	flips := modeFlips(t, p, catalog.Interpret, f, catalog.Compile, catalog.Vectorize)
	comp, vec := flips[0].Decision, flips[1].Decision
	if comp.BaselineLatencyUS != vec.BaselineLatencyUS {
		t.Fatalf("flips priced against different baselines: %+v %+v", comp, vec)
	}
	// All three latencies populated and ordered: vec < compiled < interpreted.
	if !(vec.AfterLatencyUS > 0 && vec.AfterLatencyUS < comp.AfterLatencyUS &&
		comp.AfterLatencyUS < comp.BaselineLatencyUS) {
		t.Fatalf("latency ordering wrong: %+v %+v", comp, vec)
	}
	if flips[0].PredictedImprovement <= 0.1 {
		t.Fatalf("compiled gap too small: %v", flips[0].PredictedImprovement)
	}
	if flips[1].PredictedImprovement <= flips[0].PredictedImprovement {
		t.Fatalf("vectorized must promise more than compiled: %v", flips)
	}

	// From compiled, only vectorized improves; a flip that does not
	// improve promises exactly 0.
	flips = modeFlips(t, p, catalog.Compile, f, catalog.Vectorize, catalog.Interpret)
	if flips[0].PredictedImprovement <= 0 || flips[1].PredictedImprovement != 0 {
		t.Fatalf("flips from compiled: %v", flips)
	}
	if flips[0].Decision.BaselineLatencyUS != comp.AfterLatencyUS {
		t.Fatalf("compiled baseline %v, compiled flip predicted %v",
			flips[0].Decision.BaselineLatencyUS, comp.AfterLatencyUS)
	}
}

// TestModeDecisionTieBreaks pins the mode ranking with literal latencies:
// mode candidates priced against one baseline rank by improvement,
// equal-latency modes rank compiled, then vectorized, then interpreted, and
// a candidate that does not lower the baseline (the live mode itself
// among them) is dropped.
func TestModeDecisionTieBreaks(t *testing.T) {
	I, C, V := catalog.Interpret, catalog.Compile, catalog.Vectorize
	// Candidates arrive against the preference order; rank alone must
	// restore it.
	all := []catalog.ExecutionMode{I, V, C}
	cases := []struct {
		name              string
		base              float64
		interp, comp, vec float64
		among             []catalog.ExecutionMode
		want              []catalog.ExecutionMode
	}{
		{"vec-wins", 100, 100, 60, 30, all, []catalog.ExecutionMode{V, C}},
		{"compile-wins", 100, 100, 40, 80, all, []catalog.ExecutionMode{C, V}},
		{"interpret-wins", 40, 20, 40, 80, all, []catalog.ExecutionMode{I}},
		{"three-way-tie-prefers-compile", 80, 50, 50, 50, all, []catalog.ExecutionMode{C, V, I}},
		{"three-way-tie-keeps-live-mode", 50, 50, 50, 50, all, nil},
		{"vec-compile-tie-prefers-compile", 90, 90, 50, 50, all, []catalog.ExecutionMode{C, V}},
		{"vec-interpret-tie-prefers-vec", 90, 50, 90, 50, all, []catalog.ExecutionMode{V, I}},
		{"all-zero-degenerate", 0, 0, 0, 0, all, nil},
		{"two-way-ignores-vec", 100, 100, 80, 1, []catalog.ExecutionMode{I, C}, []catalog.ExecutionMode{C}},
		{"single-candidate", 100, 100, 1, 1, []catalog.ExecutionMode{I}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lat := map[catalog.ExecutionMode]float64{I: tc.interp, C: tc.comp, V: tc.vec}
			var actions []Action
			for _, m := range tc.among {
				d := Decision{BaselineLatencyUS: tc.base, AfterLatencyUS: lat[m]}
				if d.Improvement() > 0 {
					actions = append(actions, Action{Kind: ActionModeChange, Mode: m,
						PredictedImprovement: d.Improvement(), Decision: d})
				}
			}
			rank(actions)
			var got []catalog.ExecutionMode
			for _, a := range actions {
				got = append(got, a.Mode)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("ranked modes = %v, want %v", got, tc.want)
			}
		})
	}
}

// indexBuilds prices one build of the CUSTOMER secondary index per thread
// count, with after as the post-index forecast.
func indexBuilds(t *testing.T, p *Planner, before, after modeling.IntervalForecast, threads ...int) []Action {
	t.Helper()
	index := &IndexCandidate{Table: "customer", Name: workload.CustomerSecondaryIndex,
		KeyColNames: workload.CustomerSecondaryKeyCols()}
	var builds []Action
	for _, n := range threads {
		builds = append(builds, Action{Kind: ActionIndexBuild, Index: index, Threads: n})
	}
	if err := p.Price(catalog.Interpret, before, WhatIf{Actions: builds, After: after}); err != nil {
		t.Fatal(err)
	}
	return builds
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
	a := indexBuilds(t, p, forecast(false), forecast(true), 4)[0]
	d := a.Decision
	if d.BuildTimeUS <= 0 || d.BuildCPUUS <= 0 || d.BuildMemoryBytes <= 0 {
		t.Fatalf("cost estimates missing: %+v", d)
	}
	if d.ImpactRatio() < 1 {
		t.Fatalf("build must not speed the workload up: %v", d.ImpactRatio())
	}
	if d.BenefitRatio() >= 1 || a.PredictedImprovement != 1-d.BenefitRatio() {
		t.Fatalf("index must predict a benefit: %v (improvement %v)", d.BenefitRatio(), a.PredictedImprovement)
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
	all := indexBuilds(t, p, f, f, 1, 4, 8)
	// More threads must predict shorter builds.
	if !(all[2].Decision.BuildTimeUS < all[1].Decision.BuildTimeUS &&
		all[1].Decision.BuildTimeUS < all[0].Decision.BuildTimeUS) {
		t.Fatalf("build time must fall with threads: %v / %v / %v",
			all[0].Decision.BuildTimeUS, all[1].Decision.BuildTimeUS, all[2].Decision.BuildTimeUS)
	}
	// With no impact budget, the fastest build wins.
	if best := ChooseIndexThreads(all, 0); best == nil || best.Threads != 8 {
		t.Fatalf("best = %+v", best)
	}
	// A budget no build meets takes the gentlest.
	gentlest := &all[0]
	for i := range all {
		if all[i].Decision.ImpactRatio() < gentlest.Decision.ImpactRatio() {
			gentlest = &all[i]
		}
	}
	if best := ChooseIndexThreads(all, 1e-9); best != gentlest {
		t.Fatalf("over budget: best = %+v, want the gentlest %+v", best, gentlest)
	}
	if ChooseIndexThreads(nil, 0) != nil {
		t.Fatal("no builds must choose nothing")
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
	if a := seen[ActionSetDOP]; a.DOP < 2 {
		t.Fatalf("set-dop action malformed: %+v", a)
	}
	if a := seen[ActionRepartition]; a.Partitions == 4 || a.Partitions < 1 {
		t.Fatalf("repartition action malformed: %+v", a)
	}
	// The knob decisions must carry consistent latency pairs.
	for _, k := range []ActionKind{ActionRepartition, ActionSetDOP} {
		d := seen[k].Decision
		if d.BaselineLatencyUS <= 0 || d.AfterLatencyUS <= 0 || d.AfterLatencyUS >= d.BaselineLatencyUS {
			t.Fatalf("%v decision inconsistent: %+v", k, d)
		}
	}
}

// TestPlanActionsPricesOneBaseline: one planning step predicts the live
// baseline once. On a 4-partition TPC-C engine every family surfaces, every
// action carries the same baseline bits — the forecast predicted at the
// live knobs — and each promises exactly 1 − after/baseline.
func TestPlanActionsPricesOneBaseline(t *testing.T) {
	ms := sharedModels(t)
	b := workload.TPCC{CustomersPerDistrict: 500}
	knobs := catalog.DefaultKnobs()
	knobs.PartitionCount = 4
	db := engine.Open(knobs)
	if err := b.Load(db, 1, 1); err != nil {
		t.Fatal(err)
	}
	p := New(db, ms)
	p.Cache = modeling.NewPredictionCache()
	f := tpccForecast(db, b, 20)
	actions, err := p.PlanActions(catalog.Interpret, f, CandidateConfig{ThreadCandidates: []int{1, 4}})
	if err != nil {
		t.Fatal(err)
	}
	base, err := ms.PredictInterval(modeling.NewTranslator(db, catalog.Interpret), f, nil)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[ActionKind]bool{}
	for _, a := range actions {
		kinds[a.Kind] = true
		d := a.Decision
		if math.Float64bits(d.BaselineLatencyUS) != math.Float64bits(base.AvgQueryLatencyUS) {
			t.Fatalf("%v: baseline %v, want the live prediction %v", a, d.BaselineLatencyUS, base.AvgQueryLatencyUS)
		}
		if want := 1 - d.AfterLatencyUS/d.BaselineLatencyUS; a.PredictedImprovement != want {
			t.Fatalf("%v: improvement %v, want 1 - after/baseline = %v", a, a.PredictedImprovement, want)
		}
	}
	if len(kinds) < 3 || !kinds[ActionIndexBuild] || !kinds[ActionModeChange] {
		t.Fatalf("too few families to share the baseline: %v", actions)
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
