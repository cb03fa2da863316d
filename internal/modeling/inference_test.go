package modeling

import (
	"math"
	"testing"

	"mb2/internal/catalog"
	"mb2/internal/hw"
	"mb2/internal/metrics"
	"mb2/internal/ou"
	"mb2/internal/plan"
)

// constModel returns fixed labels regardless of features.
type constModel struct{ out []float64 }

func (m constModel) Fit(X, Y [][]float64) error    { return nil }
func (m constModel) Predict(x []float64) []float64 { return append([]float64(nil), m.out...) }
func (m constModel) Name() string                  { return "const" }
func (m constModel) SizeBytes() int                { return 8 * len(m.out) }

// constantModelSet builds a ModelSet whose every OU predicts the same
// labels (no normalization), with an interference model that doubles
// elapsed time.
func constantModelSet(t *testing.T, labels hw.Metrics) *ModelSet {
	t.Helper()
	ms := &ModelSet{OUModels: make(map[ou.Kind]*OUModel)}
	for k := 0; k < ou.NumKinds; k++ {
		kind := ou.Kind(k)
		ms.OUModels[kind] = &OUModel{
			Kind: kind, Spec: ou.Get(kind),
			Model: constModel{out: labels.Vec()}, Normalize: false,
		}
	}
	ratios := make([]float64, hw.NumLabels)
	for i := range ratios {
		ratios[i] = 1
	}
	ratios[hw.LabelElapsedUS] = 2
	ms.Interference = &InterferenceModel{Model: constModel{out: ratios}}
	return ms
}

func TestPredictIntervalWithActionAndInterference(t *testing.T) {
	db := newTestDB(t, 200, 10)
	per := hw.Metrics{ElapsedUS: 10, CPUTimeUS: 9, Cycles: 20000,
		Instructions: 40000, CacheRefs: 100, CacheMisses: 5, MemoryBytes: 64}
	ms := constantModelSet(t, per)
	tr := NewTranslator(db, catalog.Interpret)

	q := &plan.SeqScanNode{Table: "items", Rows: plan.Estimates{Rows: 200}}
	forecast := IntervalForecast{
		Queries:    []ForecastQuery{{Plan: q, Count: 10}},
		IntervalUS: 1e6,
		Threads:    2,
	}
	action := &ActionForecast{IndexBuild: &IndexBuildAction{
		Table: "items", KeyCols: []string{"grp"}, Threads: 4,
	}}
	pred, err := ms.PredictInterval(tr, forecast, action)
	if err != nil {
		t.Fatal(err)
	}
	// One OU (SEQ_SCAN) per query at 10us, interference doubles elapsed.
	if math.Abs(pred.Queries[0].Isolated.ElapsedUS-10) > 1e-9 {
		t.Fatalf("isolated = %v", pred.Queries[0].Isolated.ElapsedUS)
	}
	if math.Abs(pred.Queries[0].Adjusted.ElapsedUS-20) > 1e-9 {
		t.Fatalf("adjusted = %v", pred.Queries[0].Adjusted.ElapsedUS)
	}
	// 2 worker threads + 4 build threads in the contention summary.
	if len(pred.ThreadTotals) != 6 {
		t.Fatalf("thread totals = %d", len(pred.ThreadTotals))
	}
	// Action: 4 per-thread invocations, each 10us isolated, doubled.
	if len(pred.ActionPerThread) != 4 {
		t.Fatalf("action threads = %d", len(pred.ActionPerThread))
	}
	if math.Abs(pred.ActionElapsedUS-20) > 1e-9 {
		t.Fatalf("action elapsed = %v", pred.ActionElapsedUS)
	}
	if math.Abs(pred.ActionTotal.CPUTimeUS-4*9) > 1e-9 {
		t.Fatalf("action cpu = %v", pred.ActionTotal.CPUTimeUS)
	}
	if math.Abs(pred.AvgQueryLatencyUS-20) > 1e-9 {
		t.Fatalf("avg latency = %v", pred.AvgQueryLatencyUS)
	}
	if pred.QueryCPUUS <= 0 || pred.ActionCPUUS <= 0 {
		t.Fatal("CPU summaries missing")
	}
}

func TestPredictIntervalActionTranslatorOverride(t *testing.T) {
	dbA := newTestDB(t, 100, 10)
	dbB := newTestDB(t, 5000, 10) // different database, much bigger table
	per := hw.Metrics{ElapsedUS: 10, CPUTimeUS: 9}
	ms := constantModelSet(t, per)

	trA := NewTranslator(dbA, catalog.Interpret)
	trB := NewTranslator(dbB, catalog.Interpret)
	forecast := IntervalForecast{
		Queries:    []ForecastQuery{{Plan: &plan.SeqScanNode{Table: "items"}, Count: 1}},
		IntervalUS: 1e6, Threads: 1,
	}
	action := &ActionForecast{
		IndexBuild: &IndexBuildAction{Table: "items", KeyCols: []string{"grp"}, Threads: 2},
		Translator: trB,
	}
	pred, err := ms.PredictInterval(trA, forecast, action)
	if err != nil {
		t.Fatal(err)
	}
	// The action translated against dbB: its invocations must carry dbB's
	// 5000-row table in the features. With constant models we can't see
	// features in predictions, so check the translator output directly.
	invs := trB.TranslateIndexBuild(*action.IndexBuild)
	if invs[0].Features[0] != 5000 {
		t.Fatalf("action rows feature = %v", invs[0].Features[0])
	}
	if len(pred.ActionPerThread) != 2 {
		t.Fatalf("action threads = %d", len(pred.ActionPerThread))
	}
}

func TestTranslateIndexBuildCapsThreadsByCardinality(t *testing.T) {
	db := newTestDB(t, 100, 3) // only 3 distinct grp values
	tr := NewTranslator(db, catalog.Interpret)
	invs := tr.TranslateIndexBuild(IndexBuildAction{
		Table: "items", KeyCols: []string{"grp"}, Threads: 8,
	})
	if len(invs) != 3 {
		t.Fatalf("effective invocations = %d, want 3", len(invs))
	}
	if invs[0].Features[4] != 3 {
		t.Fatalf("threads feature = %v", invs[0].Features[4])
	}
}

func TestSplitRecordsDeterministic(t *testing.T) {
	recs := make([]metrics.Record, 50)
	for i := range recs {
		recs[i] = metrics.Record{Kind: ou.SeqScan, Features: []float64{float64(i)}}
	}
	tr1, te1 := SplitRecords(recs, 0.8, 7)
	tr2, te2 := SplitRecords(recs, 0.8, 7)
	if len(tr1) != 40 || len(te1) != 10 {
		t.Fatalf("split sizes %d/%d", len(tr1), len(te1))
	}
	for i := range tr1 {
		if tr1[i].Features[0] != tr2[i].Features[0] {
			t.Fatal("split not deterministic")
		}
	}
	for i := range te1 {
		if te1[i].Features[0] != te2[i].Features[0] {
			t.Fatal("split not deterministic")
		}
	}
}
