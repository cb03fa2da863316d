package planner

import (
	"math"
	"testing"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/hw"
	"mb2/internal/modeling"
	"mb2/internal/plan"
	"mb2/internal/workload"
)

// tpccForecast builds a fingerprinted forecast over the TPC-C read
// templates, with the customer-by-last-name lookups at the given volume.
func tpccForecast(db *engine.DB, b workload.TPCC, customerCount float64) modeling.IntervalForecast {
	force := false
	bb := b
	bb.ForceCustomerIndex = &force
	f := modeling.IntervalForecast{IntervalUS: 100000, Threads: 2}
	for _, q := range bb.Templates(db, 1) {
		count := 5.0
		if _, isSeq := q.Plan.(*plan.SeqScanNode); isSeq {
			count = customerCount
		}
		f.Queries = append(f.Queries, modeling.ForecastQuery{
			Plan: q.Plan, Count: count, Fingerprint: plan.Fingerprint(q.Plan),
		})
	}
	return f
}

func TestGenerateIndexCandidatesFindsCustomerLookup(t *testing.T) {
	b := workload.TPCC{CustomersPerDistrict: 300}
	db := engine.Open(catalog.DefaultKnobs())
	if err := b.Load(db, 1, 1); err != nil {
		t.Fatal(err)
	}
	f := tpccForecast(db, b, 20)
	cands := GenerateIndexCandidates(db, f)
	if len(cands) == 0 {
		t.Fatal("no candidates from seq-scanning workload")
	}
	c := cands[0]
	if c.Table != "customer" {
		t.Fatalf("hottest candidate table = %s", c.Table)
	}
	want := workload.CustomerSecondaryKeyCols()
	if len(c.KeyColNames) != len(want) {
		t.Fatalf("key cols = %v, want %v", c.KeyColNames, want)
	}
	seen := make(map[string]bool)
	for _, n := range c.KeyColNames {
		seen[n] = true
	}
	for _, n := range want {
		if !seen[n] {
			t.Fatalf("key cols = %v missing %s", c.KeyColNames, n)
		}
	}
	if c.Weight <= 0 {
		t.Fatal("candidate weight missing")
	}

	// Determinism: a second pass yields the identical ordering.
	again := GenerateIndexCandidates(db, f)
	if len(again) != len(cands) {
		t.Fatalf("candidate count changed: %d vs %d", len(again), len(cands))
	}
	for i := range cands {
		if again[i].Name != cands[i].Name {
			t.Fatalf("candidate %d order changed: %s vs %s", i, again[i].Name, cands[i].Name)
		}
	}
}

func TestGenerateIndexCandidatesSkipsCoveredSets(t *testing.T) {
	db, _ := scanDB(t, 500)
	q := &plan.SeqScanNode{Table: "t",
		Filter: plan.Cmp{Op: plan.EQ, L: plan.Col(1), R: plan.IntConst(7)},
		Rows:   plan.Estimates{Rows: 10}}
	f := modeling.IntervalForecast{
		Queries:    []modeling.ForecastQuery{{Plan: q, Count: 10}},
		IntervalUS: 1e5, Threads: 1,
	}
	if got := GenerateIndexCandidates(db, f); len(got) != 1 {
		t.Fatalf("candidates = %d, want 1", len(got))
	}
	if _, _, err := db.CreateIndex(nil, db.Machine.CPU, "t_grp", "t", []string{"grp"}, false, 1); err != nil {
		t.Fatal(err)
	}
	if got := GenerateIndexCandidates(db, f); len(got) != 0 {
		t.Fatalf("covered column set still proposed: %v", got)
	}
}

func TestRewriteConvertsSeqScanToIdxScan(t *testing.T) {
	c := IndexCandidate{
		Table: "customer", Name: "customer_auto",
		KeyCols: []int{2, 1, 3}, KeyColNames: []string{"c_w_id", "c_d_id", "c_last"},
	}
	scan := &plan.SeqScanNode{
		Table: "customer",
		Filter: plan.And{
			L: plan.Cmp{Op: plan.EQ, L: plan.Col(2), R: plan.IntConst(0)},
			R: plan.And{
				L: plan.Cmp{Op: plan.EQ, L: plan.Col(1), R: plan.IntConst(3)},
				R: plan.Cmp{Op: plan.EQ, L: plan.Col(3), R: plan.IntConst(42)},
			},
		},
		Rows: plan.Estimates{Rows: 3},
	}
	wrapped := &plan.OutputNode{Child: scan, Rows: plan.Estimates{Rows: 3}}
	got := c.Rewrite(wrapped)
	out, ok := got.(*plan.OutputNode)
	if !ok || out == wrapped {
		t.Fatalf("parent not rewritten: %T", got)
	}
	idx, ok := out.Child.(*plan.IdxScanNode)
	if !ok {
		t.Fatalf("child = %T, want IdxScan", out.Child)
	}
	if idx.Index != "customer_auto" || len(idx.Eq) != 3 {
		t.Fatalf("idx scan = %+v", idx)
	}
	// Key order follows KeyCols: col2=0, col1=3, col3=42.
	if idx.Eq[0].I != 0 || idx.Eq[1].I != 3 || idx.Eq[2].I != 42 {
		t.Fatalf("eq keys = %v", idx.Eq)
	}
	if idx.Filter != nil {
		t.Fatalf("fully-covered predicate must leave no filter: %v", idx.Filter)
	}

	// A scan whose predicate does not cover the key stays untouched.
	partial := &plan.SeqScanNode{Table: "customer",
		Filter: plan.Cmp{Op: plan.EQ, L: plan.Col(2), R: plan.IntConst(0)}}
	if c.Rewrite(partial) != plan.Node(partial) {
		t.Fatal("uncovered scan must not be rewritten")
	}
	// Non-equality conjuncts survive as the index scan's filter.
	mixed := &plan.SeqScanNode{Table: "customer",
		Filter: plan.And{
			L: plan.And{
				L: plan.Cmp{Op: plan.EQ, L: plan.Col(2), R: plan.IntConst(0)},
				R: plan.And{
					L: plan.Cmp{Op: plan.EQ, L: plan.Col(1), R: plan.IntConst(3)},
					R: plan.Cmp{Op: plan.EQ, L: plan.Col(3), R: plan.IntConst(42)},
				},
			},
			R: plan.Cmp{Op: plan.GT, L: plan.Col(4), R: plan.IntConst(0)},
		}}
	ridx, ok := c.Rewrite(mixed).(*plan.IdxScanNode)
	if !ok {
		t.Fatal("mixed predicate must still rewrite")
	}
	if ridx.Filter == nil {
		t.Fatal("residual conjunct dropped")
	}
}

func TestPlanActionsRanksModeAndIndex(t *testing.T) {
	ms := sharedModels(t)
	b := workload.TPCC{CustomersPerDistrict: 500}
	db := engine.Open(catalog.DefaultKnobs())
	if err := b.Load(db, 1, 1); err != nil {
		t.Fatal(err)
	}
	p := New(db, ms)
	p.Cache = modeling.NewPredictionCache()
	f := tpccForecast(db, b, 20)

	actions, err := p.PlanActions(catalog.Interpret, f, CandidateConfig{
		ThreadCandidates: []int{1, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	var sawMode, sawIndex bool
	for _, a := range actions {
		switch a.Kind {
		case ActionModeChange:
			// The scan-heavy customer lookups make vectorized the
			// three-way winner (see TestEvaluateModeChangeThreeWay): the
			// first mode flip ranked.
			if !sawMode && a.Mode != catalog.Vectorize {
				t.Fatalf("mode target = %v", a.Mode)
			}
			sawMode = true
		case ActionIndexBuild:
			sawIndex = true
			if a.Index == nil || a.Index.Table != "customer" {
				t.Fatalf("index action = %+v", a)
			}
			if a.Threads < 1 {
				t.Fatalf("threads = %d", a.Threads)
			}
		}
		if a.PredictedImprovement <= 0 {
			t.Fatalf("unprofitable action surfaced: %v", a)
		}
		if a.String() == "" {
			t.Fatal("action must render")
		}
	}
	if !sawMode || !sawIndex {
		t.Fatalf("want both action kinds, got mode=%v index=%v", sawMode, sawIndex)
	}
	if hits, misses := p.Cache.Stats(); hits+misses == 0 {
		t.Fatal("planner evaluations bypassed the cache")
	}

	// With compiled mode live, the planner still proposes moving to the
	// three-way winner.
	k := db.Knobs()
	k.ExecutionMode = catalog.Compile
	db.SetKnobs(k)
	actions, err = p.PlanActions(catalog.Compile, f, CandidateConfig{ThreadCandidates: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	sawMode = false
	for _, a := range actions {
		if a.Kind == ActionModeChange {
			if !sawMode && a.Mode != catalog.Vectorize {
				t.Fatalf("mode target from compiled = %v", a.Mode)
			}
			sawMode = true
		}
	}
	if !sawMode {
		t.Fatal("vectorize flip not proposed from compiled mode")
	}

	// Once the best mode is live, no mode flip is proposed.
	k.ExecutionMode = catalog.Vectorize
	db.SetKnobs(k)
	actions, err = p.PlanActions(catalog.Vectorize, f, CandidateConfig{ThreadCandidates: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range actions {
		if a.Kind == ActionModeChange {
			t.Fatalf("redundant mode flip: %v", a)
		}
	}
}

func TestApplyModeChangeAndIndexBuildLifecycle(t *testing.T) {
	ms := sharedModels(t)
	db, _ := scanDB(t, 2000)
	p := New(db, ms)

	if _, err := p.Apply(Action{Kind: ActionModeChange, Mode: catalog.Compile}, nil); err != nil {
		t.Fatal(err)
	}
	if db.Knobs().ExecutionMode != catalog.Compile {
		t.Fatal("mode change not applied")
	}

	cand := IndexCandidate{Table: "t", Name: "t_auto_grp", KeyCols: []int{1}, KeyColNames: []string{"grp"}}
	h, err := p.Apply(Action{Kind: ActionIndexBuild, Index: &cand, Threads: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h == nil || len(h.PerThread) == 0 {
		t.Fatalf("handle = %+v", h)
	}
	if db.Index("t_auto_grp") != nil {
		t.Fatal("index visible before publish")
	}
	if db.Index("t_auto_grp"+catalog.BuildingSuffix) == nil {
		t.Fatal("private build missing")
	}
	if h.Done() {
		t.Fatal("fresh build already done")
	}
	// One uncontended interval longer than every thread's work finishes it.
	var interval float64
	for _, m := range h.PerThread {
		interval = max(interval, m.ElapsedUS+1)
	}
	work := h.Demand(interval)
	if len(work) != len(h.PerThread) {
		t.Fatalf("%d of %d threads demand work", len(work), len(h.PerThread))
	}
	uncontended := make([][]float64, len(work))
	for e, m := range work {
		if m != h.PerThread[e] {
			t.Fatalf("thread %d demands %v, want its whole work %v", e, m, h.PerThread[e])
		}
		uncontended[e] = make([]float64, hw.NumLabels)
		uncontended[e][hw.LabelElapsedUS] = 1
	}
	h.Progress(uncontended, interval)
	if !h.Done() {
		t.Fatalf("build not done after covering work: %v", h.Remaining)
	}
	if w := h.Demand(interval); w != nil {
		t.Fatal("finished build still demands work")
	}
	if err := h.Publish(db); err != nil {
		t.Fatal(err)
	}
	if db.Index("t_auto_grp") == nil || db.Index("t_auto_grp"+catalog.BuildingSuffix) != nil {
		t.Fatal("publish did not rename the index")
	}
}

// TestDegenerateForecastsYieldDefinedDecisions is the guard satellite: the
// planner's prices must be defined and finite for empty and zero-count
// forecasts, and such a forecast, with no latency to reduce, plans no action.
func TestDegenerateForecastsYieldDefinedDecisions(t *testing.T) {
	ms := sharedModels(t)
	b := workload.TPCC{CustomersPerDistrict: 300}
	db := engine.Open(catalog.DefaultKnobs())
	if err := b.Load(db, 1, 1); err != nil {
		t.Fatal(err)
	}
	p := New(db, ms)

	zeroCount := tpccForecast(db, b, 5)
	for i := range zeroCount.Queries {
		zeroCount.Queries[i].Count = 0
	}
	cases := []struct {
		name string
		f    modeling.IntervalForecast
	}{
		{"empty", modeling.IntervalForecast{IntervalUS: 1e5, Threads: 2}},
		{"zero-count", zeroCount},
	}
	finite := func(vs ...float64) bool {
		for _, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			flips := modeFlips(t, p, catalog.Interpret, tc.f, catalog.Compile)
			builds := indexBuilds(t, p, tc.f, tc.f, 2)
			knobs := []Action{{Kind: ActionRepartition, Partitions: 4}}
			if err := p.Price(catalog.Interpret, tc.f, WhatIf{Actions: knobs}); err != nil {
				t.Fatal(err)
			}
			for _, a := range []Action{flips[0], builds[0], knobs[0]} {
				d := a.Decision
				if !finite(d.BaselineLatencyUS, d.AfterLatencyUS, d.DuringLatencyUS, d.BuildTimeUS,
					d.BuildCPUUS, d.BuildMemoryBytes, d.ImpactRatio(), d.BenefitRatio(), a.PredictedImprovement) {
					t.Fatalf("%v: decision not finite: %+v", a.Kind, d)
				}
				if a.PredictedImprovement != 0 {
					t.Fatalf("%v: degenerate forecast predicted an improvement: %+v", a.Kind, d)
				}
			}

			actions, err := p.PlanActions(catalog.Interpret, tc.f, CandidateConfig{ThreadCandidates: []int{1, 2, 4}})
			if err != nil {
				t.Fatal(err)
			}
			if len(actions) != 0 {
				t.Fatalf("degenerate forecast planned %v", actions)
			}
		})
	}
}
