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

// newVecTestDB builds an unpartitioned database with the same two tables as
// the partition parity tests.
func newVecTestDB(t *testing.T, n int) *engine.DB {
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
			storage.NewInt(int64(i % 20)),
			storage.NewFloat(float64(i)),
		}
	}
	if err := db.BulkLoad("items", rows); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("pairs", catalog.NewSchema(
		catalog.Column{Name: "id", Type: catalog.Int64},
		catalog.Column{Name: "w", Type: catalog.Float64},
	)); err != nil {
		t.Fatal(err)
	}
	half := make([]storage.Tuple, n/2)
	for i := 0; i < n/2; i++ {
		half[i] = storage.Tuple{storage.NewInt(int64(i)), storage.NewFloat(float64(i) / 2)}
	}
	if err := db.BulkLoad("pairs", half); err != nil {
		t.Fatal(err)
	}
	return db
}

// recordedIn runs the plan in the given execution mode and drains the
// recorded OU stream.
func recordedIn(t *testing.T, db *engine.DB, mode catalog.ExecutionMode, q plan.Node) []metrics.Record {
	t.Helper()
	col := metrics.NewCollector()
	ctx := &exec.Ctx{
		DB:      db,
		Tracker: metrics.NewTracker(col, hw.NewThread(hw.DefaultCPU())),
		Mode:    mode, Contenders: 1, DOP: db.Knobs().ScanDOP,
	}
	if _, err := exec.Execute(ctx, q); err != nil {
		t.Fatal(err)
	}
	return col.Drain()
}

// compareStreams requires identical kind sequences and (with exact plan
// estimates) feature agreement to float tolerance.
func compareStreams(t *testing.T, recorded []metrics.Record, translated []OUInvocation) {
	t.Helper()
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
			t.Fatalf("OU %d kind mismatch: recorded %v vs translated %v",
				i, recorded[i].Kind, translated[i].Kind)
		}
		for j := range translated[i].Features {
			got, want := translated[i].Features[j], recorded[i].Features[j]
			if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
				t.Errorf("OU %d (%v) feature %d: translated %v, recorded %v",
					i, recorded[i].Kind, j, got, want)
			}
		}
	}
}

// TestTranslatorMatchesExecutorAllModes pins the translator's emission to
// the executor's recorded OU stream in every execution mode — interpreted,
// compiled (fused), and vectorized — over a filtered scan, scan chains with
// wrapper filter/projection stages, and hash joins with a streamed probe
// side, on an unpartitioned database and on one hashed four ways (where
// every mode must take the partition exchange). This is the parity contract
// that makes PredictQuery's three-way mode pricing trustworthy.
func TestTranslatorMatchesExecutorAllModes(t *testing.T) {
	const n = 1000
	dbs := []struct {
		suffix string
		db     *engine.DB
		parts  int
	}{
		{"", newVecTestDB(t, n), 1},
		{"/parts4", newPartitionedTestDB(t, n, 4, 2), 4},
	}
	lowIDs := plan.Cmp{Op: plan.LT, L: plan.Col(0), R: plan.IntConst(n / 2)}

	queries := []struct {
		name string
		node plan.Node
	}{
		{"filtered-scan", &plan.SeqScanNode{
			Table:  "items",
			Filter: lowIDs,
			Rows:   plan.Estimates{Rows: n / 2},
		}},
		{"scan-chain", &plan.ProjectNode{
			Child: &plan.FilterNode{
				Child: &plan.SeqScanNode{Table: "items", Rows: plan.Estimates{Rows: n}},
				Pred:  plan.Cmp{Op: plan.GE, L: plan.Col(0), R: plan.IntConst(200)},
				Rows:  plan.Estimates{Rows: n - 200},
			},
			Exprs: []plan.Expr{
				plan.Col(0),
				plan.Arith{Op: plan.Add, L: plan.Col(2), R: plan.FloatConst(1)},
			},
		}},
		{"hash-join", &plan.HashJoinNode{
			Left:      &plan.SeqScanNode{Table: "items", Rows: plan.Estimates{Rows: n}},
			Right:     &plan.SeqScanNode{Table: "pairs", Rows: plan.Estimates{Rows: n / 2}},
			LeftKeys:  []int{0},
			RightKeys: []int{0},
			Rows:      plan.Estimates{Rows: n / 2, Distinct: n},
		}},
		{"filter-over-scan", &plan.FilterNode{
			Child: &plan.SeqScanNode{Table: "items", Rows: plan.Estimates{Rows: n}},
			Pred:  lowIDs,
			Rows:  plan.Estimates{Rows: n / 2},
		}},
		{"hash-join-filtered-probe", &plan.HashJoinNode{
			Left: &plan.SeqScanNode{Table: "pairs", Rows: plan.Estimates{Rows: n / 2}},
			Right: &plan.FilterNode{
				Child: &plan.SeqScanNode{Table: "items", Rows: plan.Estimates{Rows: n}},
				Pred:  lowIDs,
				Rows:  plan.Estimates{Rows: n / 2},
			},
			LeftKeys:  []int{0},
			RightKeys: []int{0},
			Rows:      plan.Estimates{Rows: n / 2, Distinct: n / 2},
		}},
	}
	modes := []catalog.ExecutionMode{catalog.Interpret, catalog.Compile, catalog.Vectorize}

	for _, d := range dbs {
		for _, q := range queries {
			for _, mode := range modes {
				t.Run(q.name+"/"+mode.String()+d.suffix, func(t *testing.T) {
					recorded := recordedIn(t, d.db, mode, q.node)
					translated := NewTranslator(d.db, mode).TranslatePlan(q.node)
					if d.parts > 1 {
						// Per-partition features carry hash skew, and a
						// partitioned scan leaves vectorized mode nothing
						// to batch: only the streams must agree.
						comparePartitioned(t, recorded, translated)
						return
					}
					compareStreams(t, recorded, translated)

					vecRecs := 0
					for _, inv := range translated {
						switch inv.Kind {
						case ou.VecScan, ou.VecFilter, ou.VecProbe:
							vecRecs++
						}
					}
					if mode == catalog.Vectorize && vecRecs == 0 {
						t.Error("vectorized translation emitted no VEC_* invocations")
					}
					if mode != catalog.Vectorize && vecRecs != 0 {
						t.Errorf("%v translation emitted %d VEC_* invocations", mode, vecRecs)
					}
				})
			}
		}
	}
}
