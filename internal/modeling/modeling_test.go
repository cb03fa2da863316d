package modeling

import (
	"math"
	"testing"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/exec"
	"mb2/internal/hw"
	"mb2/internal/metrics"
	"mb2/internal/ou"
	"mb2/internal/plan"
	"mb2/internal/storage"
)

func newTestDB(t *testing.T, n, groups int) *engine.DB {
	t.Helper()
	db := engine.Open(catalog.DefaultKnobs())
	schema := catalog.NewSchema(
		catalog.Column{Name: "id", Type: catalog.Int64},
		catalog.Column{Name: "grp", Type: catalog.Int64},
		catalog.Column{Name: "val", Type: catalog.Float64},
	)
	if _, err := db.CreateTable("items", schema); err != nil {
		t.Fatal(err)
	}
	rows := make([]storage.Tuple, n)
	for i := 0; i < n; i++ {
		rows[i] = storage.Tuple{
			storage.NewInt(int64(i)),
			storage.NewInt(int64(i % groups)),
			storage.NewFloat(float64(i)),
		}
	}
	if err := db.BulkLoad("items", rows); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestTranslatorMatchesExecutor verifies the core MB2 contract: with exact
// estimates, the translator produces the same OU sequence and features the
// executor records — the single-translator design of Sec 6.1.
func TestTranslatorMatchesExecutor(t *testing.T) {
	const n, groups = 1000, 20
	db := newTestDB(t, n, groups)
	sel := 0.4
	cut := int64(float64(n) * sel)
	pred := plan.Cmp{Op: plan.LT, L: plan.Col(0), R: plan.IntConst(cut)}
	q := &plan.OutputNode{
		Child: &plan.SortNode{
			Child: &plan.AggNode{
				Child: &plan.HashJoinNode{
					Left:      &plan.SeqScanNode{Table: "items", Filter: pred, Rows: plan.Estimates{Rows: float64(cut)}},
					Right:     &plan.SeqScanNode{Table: "items", Rows: plan.Estimates{Rows: n}},
					LeftKeys:  []int{1},
					RightKeys: []int{1},
					Rows:      plan.Estimates{Rows: float64(cut) * n / groups, Distinct: groups},
				},
				GroupBy: []int{1},
				Aggs:    []plan.AggSpec{{Fn: plan.Count, Arg: plan.Col(0)}},
				Rows:    plan.Estimates{Rows: groups, Distinct: groups},
			},
			Keys: []plan.SortKey{{Col: 1, Desc: true}},
			Rows: plan.Estimates{Rows: groups},
		},
		Rows: plan.Estimates{Rows: groups},
	}

	col := metrics.NewCollector()
	ctx := &exec.Ctx{
		DB:      db,
		Tracker: metrics.NewTracker(col, hw.NewThread(hw.DefaultCPU())),
		Mode:    catalog.Interpret, Contenders: 1,
	}
	if _, err := exec.Execute(ctx, q); err != nil {
		t.Fatal(err)
	}
	recorded := col.Drain()

	tr := NewTranslator(db, catalog.Interpret)
	translated := tr.TranslatePlan(q)

	if len(recorded) != len(translated) {
		var rk, tk []ou.Kind
		for _, r := range recorded {
			rk = append(rk, r.Kind)
		}
		for _, i := range translated {
			tk = append(tk, i.Kind)
		}
		t.Fatalf("OU count mismatch: recorded %v vs translated %v", rk, tk)
	}
	for i := range recorded {
		if recorded[i].Kind != translated[i].Kind {
			t.Fatalf("OU %d kind mismatch: %v vs %v", i, recorded[i].Kind, translated[i].Kind)
		}
		for j := range translated[i].Features {
			got, want := translated[i].Features[j], recorded[i].Features[j]
			tol := 0.05*math.Abs(want) + 1e-9
			// Width features of intermediate results are sampled at
			// execution time; allow looser agreement there.
			if math.Abs(got-want) > tol && math.Abs(got-want) > 0.2*math.Abs(want)+2 {
				t.Errorf("OU %d (%v) feature %d: translated %v, recorded %v",
					i, recorded[i].Kind, j, got, want)
			}
		}
	}
}

func TestTranslateIndexBuild(t *testing.T) {
	db := newTestDB(t, 500, 10)
	tr := NewTranslator(db, catalog.Interpret)
	invs := tr.TranslateIndexBuild(IndexBuildAction{Table: "items", KeyCols: []string{"grp"}, Threads: 4})
	if len(invs) != 4 {
		t.Fatalf("want 4 per-thread invocations, got %d", len(invs))
	}
	f := invs[0].Features
	if f[0] != 500 || f[3] != 10 || f[4] != 4 {
		t.Fatalf("features = %v", f)
	}
	if tr.TranslateIndexBuild(IndexBuildAction{Table: "ghost", Threads: 2}) != nil {
		t.Fatal("unknown table must translate to nil")
	}
}

// TestTranslateUnknownTable: a plan naming a table the catalog does not have
// degrades to the one-column, eight-byte default shape, with or without a
// projection (which also may name a column the schema does not have).
func TestTranslateUnknownTable(t *testing.T) {
	db := newTestDB(t, 10, 2)
	for name, scan := range map[string]plan.Node{
		"seq":           &plan.SeqScanNode{Table: "nope"},
		"seq-projected": &plan.SeqScanNode{Table: "nope", Project: []int{0}},
		"idx":           &plan.IdxScanNode{Table: "nope", Index: "nope_pk"},
		"idx-projected": &plan.IdxScanNode{Table: "nope", Index: "nope_pk", Project: []int{0}},
		"bad-column":    &plan.SeqScanNode{Table: "items", Project: []int{99}},
	} {
		invs := NewTranslator(db, catalog.Interpret).TranslatePlan(&plan.OutputNode{Child: scan})
		out := invs[len(invs)-1]
		if out.Kind != ou.Output || out.Features[1] != 1 || out.Features[2] != 8 {
			t.Errorf("%s: output over the scan = %v %v, want 1 column of 8 bytes", name, out.Kind, out.Features)
		}
	}
}

func TestTranslateMaintenanceAndTxn(t *testing.T) {
	db := newTestDB(t, 10, 2)
	tr := NewTranslator(db, catalog.Interpret)
	invs := tr.TranslateMaintenance(MaintenanceStats{
		Txns: 100, Writes: 500, RedoBytes: 64000, IntervalUS: 1e6,
	})
	if len(invs) != 3 || invs[0].Kind != ou.GC || invs[1].Kind != ou.LogSerialize || invs[2].Kind != ou.LogFlush {
		t.Fatalf("maintenance OUs = %v", invs)
	}
	if invs[1].Features[0] != 600 { // writes + commit records
		t.Fatalf("serialize records = %v", invs[1].Features[0])
	}
	txns := tr.TranslateTxn(50, 5)
	if len(txns) != 2 || txns[0].Kind != ou.TxnBegin || txns[1].Kind != ou.TxnCommit {
		t.Fatalf("txn OUs = %v", txns)
	}
}

func TestCardNoiseApplies(t *testing.T) {
	db := newTestDB(t, 1000, 10)
	tr := NewTranslator(db, catalog.Interpret)
	tr.CardNoise = func(v float64) float64 { return v * 1.3 }
	invs := tr.TranslatePlan(&plan.SeqScanNode{Table: "items"})
	if invs[0].Features[0] != 1300 {
		t.Fatalf("noise not applied: %v", invs[0].Features[0])
	}
	tr.CardNoise = func(v float64) float64 { return -5 }
	invs = tr.TranslatePlan(&plan.SeqScanNode{Table: "items"})
	if invs[0].Features[0] != 0 {
		t.Fatal("negative noisy estimates must clamp to 0")
	}
}

// synthRecords builds OU records whose labels follow a known per-tuple law,
// so normalization and training behavior is verifiable.
func synthRecords(kind ou.Kind, n int) []metrics.Record {
	recs := make([]metrics.Record, 0, n)
	rows := []float64{8, 32, 128, 512, 2048, 8192}
	for i := 0; i < n; i++ {
		r := rows[i%len(rows)]
		cols := float64(2 + i%3)
		feats := ou.ExecFeatures(r, cols, cols*8, r/4, 0, 1, i%2 == 0)
		perTuple := 2.0 + 0.5*cols
		if i%2 == 0 {
			perTuple *= 0.5 // compiled mode is cheaper
		}
		labels := hw.Metrics{
			ElapsedUS:    r * perTuple,
			CPUTimeUS:    r * perTuple * 0.9,
			Cycles:       r * perTuple * 2200,
			Instructions: r * perTuple * 4000,
			CacheRefs:    r * cols,
			CacheMisses:  r * cols * 0.05,
			MemoryBytes:  r * 16,
		}
		recs = append(recs, metrics.Record{Kind: kind, Features: feats, Labels: labels})
	}
	return recs
}

func TestTrainOUModelPredicts(t *testing.T) {
	recs := synthRecords(ou.SeqScan, 240)
	opts := DefaultTrainOptions()
	opts.Candidates = []string{"huber", "gbm"}
	m, err := TrainOUModel(ou.SeqScan, recs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if m.Report.Best == "" {
		t.Fatal("no model selected")
	}
	// Predict at a feature point inside the sweep.
	feats := ou.ExecFeatures(512, 3, 24, 128, 0, 1, false)
	got := m.Predict(feats)
	want := 512 * (2.0 + 0.5*3)
	if math.Abs(got.ElapsedUS-want)/want > 0.25 {
		t.Fatalf("predicted elapsed %v, want ~%v", got.ElapsedUS, want)
	}
	// Generalization far beyond training rows: normalization carries it.
	feats = ou.ExecFeatures(500_000, 3, 24, 1000, 0, 1, false)
	got = m.Predict(feats)
	want = 500_000 * (2.0 + 0.5*3)
	if math.Abs(got.ElapsedUS-want)/want > 0.3 {
		t.Fatalf("extrapolated elapsed %v, want ~%v (normalization broken?)", got.ElapsedUS, want)
	}
}

func TestNormalizationEnablesExtrapolation(t *testing.T) {
	recs := synthRecords(ou.SeqScan, 240)
	test := ou.ExecFeatures(1_000_000, 2, 16, 100, 0, 1, false)
	want := 1_000_000 * (2.0 + 0.5*2)

	optsOn := DefaultTrainOptions()
	optsOn.Candidates = []string{"gbm"}
	mOn, err := TrainOUModel(ou.SeqScan, recs, optsOn)
	if err != nil {
		t.Fatal(err)
	}
	optsOff := optsOn
	optsOff.Normalize = false
	mOff, err := TrainOUModel(ou.SeqScan, recs, optsOff)
	if err != nil {
		t.Fatal(err)
	}
	errOn := math.Abs(mOn.Predict(test).ElapsedUS-want) / want
	errOff := math.Abs(mOff.Predict(test).ElapsedUS-want) / want
	if errOn >= errOff {
		t.Fatalf("normalization must help extrapolation: on=%v off=%v", errOn, errOff)
	}
	if errOff < 0.5 {
		t.Fatalf("tree models cannot extrapolate unnormalized; err=%v suspicious", errOff)
	}
}

func TestPredictClampsNegative(t *testing.T) {
	recs := synthRecords(ou.SeqScan, 60)
	opts := DefaultTrainOptions()
	opts.Candidates = []string{"huber"}
	m, err := TrainOUModel(ou.SeqScan, recs, opts)
	if err != nil {
		t.Fatal(err)
	}
	got := m.Predict(ou.ExecFeatures(0, 1, 1, 0, 0, 1, true))
	for i, v := range got.Vec() {
		if v < 0 {
			t.Fatalf("label %d negative: %v", i, v)
		}
	}
}

func TestModelSetTrainRetrain(t *testing.T) {
	repo := metrics.NewRepository()
	repo.Add(synthRecords(ou.SeqScan, 120)...)
	repo.Add(synthRecords(ou.SortBuild, 120)...)
	opts := DefaultTrainOptions()
	opts.Candidates = []string{"huber"}
	ms, err := TrainModelSet(repo, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms.Kinds()) != 2 || ms.SizeBytes() <= 0 {
		t.Fatalf("model set wrong: %v, %d bytes", ms.Kinds(), ms.SizeBytes())
	}
	if _, err := ms.PredictOU(OUInvocation{Kind: ou.GC, Features: []float64{1, 2, 3}}); err == nil {
		t.Fatal("missing model must error")
	}

	old := ms.OUModels[ou.SeqScan]
	if err := ms.Retrain(ou.SeqScan, synthRecords(ou.SeqScan, 60), opts); err != nil {
		t.Fatal(err)
	}
	if ms.OUModels[ou.SeqScan] == old {
		t.Fatal("retrain must replace the model")
	}
	if _, err := TrainModelSet(metrics.NewRepository(), opts); err == nil {
		t.Fatal("empty repository must error")
	}
}

func TestInterferenceFeaturesShape(t *testing.T) {
	target := hw.Metrics{ElapsedUS: 100, CPUTimeUS: 90, Cycles: 2e5}
	totals := []hw.Metrics{{ElapsedUS: 500}, {ElapsedUS: 700}}
	f := InterferenceFeatures(target, totals, 1000)
	if len(f) != NumInterferenceFeatures {
		t.Fatalf("feature width %d, want %d", len(f), NumInterferenceFeatures)
	}
	if f[0] != 1 { // elapsed normalized by itself
		t.Fatalf("normalized elapsed = %v", f[0])
	}
	if f[len(f)-2] != 2 { // thread count
		t.Fatalf("thread count feature = %v", f[len(f)-2])
	}
	// Zero-elapsed target and empty threads must not NaN.
	f = InterferenceFeatures(hw.Metrics{}, nil, 0)
	for i, v := range f {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("feature %d is %v", i, v)
		}
	}
}

func TestInterferenceModelLearnsLoad(t *testing.T) {
	// Synthetic law: ratio grows with total concurrent CPU demand.
	var samples []InterferenceSample
	for n := 1; n <= 8; n++ {
		for rep := 0; rep < 6; rep++ {
			per := hw.Metrics{ElapsedUS: 1000 * float64(rep+1), CPUTimeUS: 900 * float64(rep+1),
				Cycles: 2e6, CacheMisses: 1e4, CacheRefs: 1e5}
			totals := make([]hw.Metrics, n)
			for i := range totals {
				totals[i] = per
			}
			load := float64(n) * per.CPUTimeUS / 10000
			ratio := 1 + math.Max(0, load-0.5)
			ratios := make([]float64, hw.NumLabels)
			for i := range ratios {
				ratios[i] = 1
			}
			ratios[hw.LabelElapsedUS] = ratio
			ratios[hw.LabelCPUTimeUS] = ratio
			samples = append(samples, InterferenceSample{
				TargetPred: per, ThreadTotals: totals, IntervalUS: 10000, ActualRatios: ratios,
			})
		}
	}
	im, err := TrainInterference(samples, []string{"random_forest"}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	light := im.PredictRatios(samples[0].TargetPred, samples[0].ThreadTotals[:1], 10000)
	heavy := im.PredictRatios(samples[len(samples)-1].TargetPred, samples[len(samples)-1].ThreadTotals, 10000)
	if heavy[hw.LabelElapsedUS] <= light[hw.LabelElapsedUS] {
		t.Fatalf("interference model did not learn load: light=%v heavy=%v",
			light[hw.LabelElapsedUS], heavy[hw.LabelElapsedUS])
	}
	for _, r := range light {
		if r < 1 {
			t.Fatal("ratios must clamp at 1")
		}
	}
	if _, err := TrainInterference(nil, nil, 1, 1); err == nil {
		t.Fatal("empty samples must error")
	}
}

func TestPredictIntervalPipeline(t *testing.T) {
	db := newTestDB(t, 2000, 10)
	repo := metrics.NewRepository()
	// Record real executions to train on.
	for i := 0; i < 30; i++ {
		col := metrics.NewCollector()
		ctx := &exec.Ctx{DB: db,
			Tracker: metrics.NewTracker(col, hw.NewThread(hw.DefaultCPU())),
			Mode:    catalog.Interpret, Contenders: 1}
		cut := int64(100 * (i + 1))
		if _, err := exec.Execute(ctx, &plan.SeqScanNode{Table: "items",
			Filter: plan.Cmp{Op: plan.LT, L: plan.Col(0), R: plan.IntConst(cut)}}); err != nil {
			t.Fatal(err)
		}
		repo.Aggregate(col)
	}
	opts := DefaultTrainOptions()
	opts.Candidates = []string{"huber"}
	ms, err := TrainModelSet(repo, opts)
	if err != nil {
		t.Fatal(err)
	}

	tr := NewTranslator(db, catalog.Interpret)
	q := &plan.SeqScanNode{Table: "items",
		Filter: plan.Cmp{Op: plan.LT, L: plan.Col(0), R: plan.IntConst(500)},
		Rows:   plan.Estimates{Rows: 500}}
	forecast := IntervalForecast{
		Queries:    []ForecastQuery{{Plan: q, Count: 50}},
		IntervalUS: 1e6,
		Threads:    4,
	}
	pred, err := ms.PredictInterval(tr, forecast, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pred.Queries) != 1 || pred.Queries[0].Isolated.ElapsedUS <= 0 {
		t.Fatalf("prediction missing: %+v", pred)
	}
	if len(pred.ThreadTotals) != 4 {
		t.Fatalf("thread totals = %d", len(pred.ThreadTotals))
	}
	if pred.AvgQueryLatencyUS <= 0 {
		t.Fatal("latency summary missing")
	}
	// Without an interference model, adjusted equals isolated.
	if pred.Queries[0].Adjusted != pred.Queries[0].Isolated {
		t.Fatal("no-interference adjustment must be identity")
	}
}

func TestOUModelFeatureImportance(t *testing.T) {
	recs := synthRecords(ou.SeqScan, 240)
	opts := DefaultTrainOptions()
	opts.Candidates = []string{"gbm"}
	m, err := TrainOUModel(ou.SeqScan, recs, opts)
	if err != nil {
		t.Fatal(err)
	}
	imp := m.FeatureImportance(recs, 1)
	if len(imp) != 7 {
		t.Fatalf("importance entries = %d", len(imp))
	}
	// The synthetic law's per-tuple cost depends on num_cols and exec_mode;
	// the loop feature is constant and must score ~0.
	if imp["num_cols"] <= imp["num_loops"] {
		t.Fatalf("num_cols (%v) must outrank the constant num_loops (%v)",
			imp["num_cols"], imp["num_loops"])
	}
	if imp["exec_mode"] <= 0 {
		t.Fatalf("exec_mode importance = %v", imp["exec_mode"])
	}
}
