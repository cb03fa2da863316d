package qppnet

import (
	"math"
	"math/rand"
	"testing"

	"mb2/internal/plan"
)

// synthPlan builds a scan(+filter)+agg plan whose synthetic latency follows
// a simple law of its cardinalities.
func synthPlan(rows, groups float64) plan.Node {
	return &plan.OutputNode{
		Child: &plan.AggNode{
			Child:   &plan.SeqScanNode{Table: "t", TableRows: rows, Rows: plan.Estimates{Rows: rows}},
			GroupBy: []int{1},
			Aggs:    []plan.AggSpec{{Fn: plan.Count, Arg: plan.Col(0)}},
			Rows:    plan.Estimates{Rows: groups, Distinct: groups},
		},
		Rows: plan.Estimates{Rows: groups},
	}
}

func synthLatency(rows, groups float64) float64 {
	return 5*rows + 2*groups + 100
}

func trainingSet(n int, seed int64, maxRows float64) ([]plan.Node, []float64) {
	rng := rand.New(rand.NewSource(seed))
	var plans []plan.Node
	var lats []float64
	for i := 0; i < n; i++ {
		rows := 100 + rng.Float64()*maxRows
		groups := 1 + rng.Float64()*rows/10
		plans = append(plans, synthPlan(rows, groups))
		lats = append(lats, synthLatency(rows, groups))
	}
	return plans, lats
}

func TestFitAndPredictInDistribution(t *testing.T) {
	plans, lats := trainingSet(300, 1, 10000)
	m := New(7)
	if err := m.Fit(plans, lats); err != nil {
		t.Fatal(err)
	}
	testPlans, testLats := trainingSet(50, 2, 10000)
	totalRel := 0.0
	for i, p := range testPlans {
		pred := m.Predict(p)
		totalRel += math.Abs(pred-testLats[i]) / testLats[i]
	}
	avg := totalRel / float64(len(testPlans))
	if avg > 0.35 {
		t.Fatalf("in-distribution rel error = %v", avg)
	}
}

func TestGeneralizationDegradesOutOfDistribution(t *testing.T) {
	plans, lats := trainingSet(300, 3, 10000)
	m := New(7)
	if err := m.Fit(plans, lats); err != nil {
		t.Fatal(err)
	}
	inPlans, inLats := trainingSet(50, 4, 10000)
	inErr := 0.0
	for i, p := range inPlans {
		inErr += math.Abs(m.Predict(p)-inLats[i]) / inLats[i]
	}
	inErr /= float64(len(inPlans))

	// 10x larger data: the raw-feature NN must extrapolate and suffer —
	// the limitation Fig 7a demonstrates.
	outErr := 0.0
	const n = 50
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < n; i++ {
		rows := 80000 + rng.Float64()*40000
		groups := 1 + rng.Float64()*rows/10
		outErr += math.Abs(m.Predict(synthPlan(rows, groups))-synthLatency(rows, groups)) / synthLatency(rows, groups)
	}
	outErr /= n
	if outErr <= inErr {
		t.Fatalf("expected degradation out of distribution: in=%v out=%v", inErr, outErr)
	}
}

func TestPredictNonNegativeAndDeterministic(t *testing.T) {
	plans, lats := trainingSet(100, 6, 5000)
	m1, m2 := New(9), New(9)
	if err := m1.Fit(plans, lats); err != nil {
		t.Fatal(err)
	}
	if err := m2.Fit(plans, lats); err != nil {
		t.Fatal(err)
	}
	p := synthPlan(500, 20)
	if m1.Predict(p) != m2.Predict(p) {
		t.Fatal("training must be deterministic for a fixed seed")
	}
	if m1.Predict(p) < 0 {
		t.Fatal("latency prediction must be non-negative")
	}
}

func TestFitRejectsBadInput(t *testing.T) {
	m := New(1)
	if err := m.Fit(nil, nil); err == nil {
		t.Fatal("empty training set must error")
	}
	if err := m.Fit([]plan.Node{synthPlan(10, 2)}, []float64{1, 2}); err == nil {
		t.Fatal("mismatched lengths must error")
	}
}

func TestOpTypesDistinct(t *testing.T) {
	seen := map[string]bool{}
	nodes := []plan.Node{
		&plan.SeqScanNode{}, &plan.IdxScanNode{}, &plan.HashJoinNode{},
		&plan.IndexJoinNode{}, &plan.AggNode{}, &plan.SortNode{},
		&plan.ProjectNode{}, &plan.FilterNode{}, &plan.OutputNode{},
		&plan.InsertNode{}, &plan.UpdateNode{}, &plan.DeleteNode{},
	}
	for _, n := range nodes {
		tp := opType(n)
		if seen[tp] {
			t.Fatalf("duplicate op type %q", tp)
		}
		seen[tp] = true
	}
}

func TestSizeBytesGrowsWithUnits(t *testing.T) {
	plans, lats := trainingSet(50, 8, 1000)
	m := New(1)
	if err := m.Fit(plans, lats); err != nil {
		t.Fatal(err)
	}
}
