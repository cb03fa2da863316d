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

// indexItemsID builds the items(id) index the index-scan and index-join
// parity queries read.
func indexItemsID(t *testing.T, db *engine.DB) *engine.DB {
	t.Helper()
	if _, _, err := db.CreateIndex(nil, hw.DefaultCPU(), "items_id", "items", []string{"id"}, false, 2); err != nil {
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

// parityQuery is one plan of the translator-parity matrix, with exact
// estimates for the n-row items / n/2-row pairs test tables.
type parityQuery struct {
	name string
	node plan.Node
	// noVec marks a plan with no fragment the VecPass driver takes.
	noVec bool
}

func parityQueries(n int) []parityQuery {
	lowIDs := plan.Cmp{Op: plan.LT, L: plan.Col(0), R: plan.IntConst(int64(n / 2))}
	lowGroups := plan.Cmp{Op: plan.LT, L: plan.Col(1), R: plan.IntConst(10)}
	countByGroup := func() *plan.AggNode {
		return &plan.AggNode{
			Child:   &plan.SeqScanNode{Table: "items", Rows: plan.Estimates{Rows: float64(n)}},
			GroupBy: []int{1},
			Aggs:    []plan.AggSpec{{Fn: plan.Count, Arg: plan.Col(0)}},
			Rows:    plan.Estimates{Rows: 20, Distinct: 20},
		}
	}
	return []parityQuery{
		{name: "filtered-scan", node: &plan.SeqScanNode{
			Table:  "items",
			Filter: lowIDs,
			Rows:   plan.Estimates{Rows: float64(n / 2)},
		}},
		{name: "scan-chain", node: &plan.ProjectNode{
			Child: &plan.FilterNode{
				Child: &plan.SeqScanNode{Table: "items", Rows: plan.Estimates{Rows: float64(n)}},
				Pred:  plan.Cmp{Op: plan.GE, L: plan.Col(0), R: plan.IntConst(200)},
				Rows:  plan.Estimates{Rows: float64(n - 200)},
			},
			Exprs: []plan.Expr{
				plan.Col(0),
				plan.Arith{Op: plan.Add, L: plan.Col(2), R: plan.FloatConst(1)},
			},
		}},
		{name: "hash-join", node: &plan.HashJoinNode{
			Left:      &plan.SeqScanNode{Table: "items", Rows: plan.Estimates{Rows: float64(n)}},
			Right:     &plan.SeqScanNode{Table: "pairs", Rows: plan.Estimates{Rows: float64(n / 2)}},
			LeftKeys:  []int{0},
			RightKeys: []int{0},
			Rows:      plan.Estimates{Rows: float64(n / 2), Distinct: float64(n)},
		}},
		{name: "filter-over-scan", node: &plan.FilterNode{
			Child: &plan.SeqScanNode{Table: "items", Rows: plan.Estimates{Rows: float64(n)}},
			Pred:  lowIDs,
			Rows:  plan.Estimates{Rows: float64(n / 2)},
		}},
		{name: "hash-join-filtered-probe", node: &plan.HashJoinNode{
			Left: &plan.SeqScanNode{Table: "pairs", Rows: plan.Estimates{Rows: float64(n / 2)}},
			Right: &plan.FilterNode{
				Child: &plan.SeqScanNode{Table: "items", Rows: plan.Estimates{Rows: float64(n)}},
				Pred:  lowIDs,
				Rows:  plan.Estimates{Rows: float64(n / 2)},
			},
			LeftKeys:  []int{0},
			RightKeys: []int{0},
			Rows:      plan.Estimates{Rows: float64(n / 2), Distinct: float64(n / 2)},
		}},
		// An idx-rooted chain: no mode vectorizes it, no partitioning fans it out.
		{name: "filter-over-idx-scan", noVec: true, node: &plan.FilterNode{
			Child: &plan.IdxScanNode{
				Table: "items", Index: "items_id",
				Lo:   []storage.Value{storage.NewInt(100)},
				Hi:   []storage.Value{storage.NewInt(299)},
				Rows: plan.Estimates{Rows: 200},
			},
			Pred: lowGroups,
			Rows: plan.Estimates{Rows: 100},
		}},
		// Wrappers over a pipeline breaker are not part of any chain.
		{name: "project-filter-over-agg", node: &plan.ProjectNode{
			Child: &plan.FilterNode{
				Child: countByGroup(),
				Pred:  plan.Cmp{Op: plan.LT, L: plan.Col(0), R: plan.IntConst(10)},
				Rows:  plan.Estimates{Rows: 10},
			},
			Exprs: []plan.Expr{
				plan.Col(0),
				plan.Arith{Op: plan.Add, L: plan.Col(1), R: plan.IntConst(1)},
			},
		}},
		{name: "index-join", node: &plan.IndexJoinNode{
			Outer:     &plan.SeqScanNode{Table: "pairs", Rows: plan.Estimates{Rows: float64(n / 2)}},
			Table:     "items",
			Index:     "items_id",
			OuterKeys: []int{0},
			Rows:      plan.Estimates{Rows: float64(n / 2)},
		}},
		// Breakers that consume a chain as it streams: the build prices the
		// chain's surviving rows, whatever driver delivered them.
		{name: "agg-over-chain", node: &plan.AggNode{
			Child: &plan.FilterNode{
				Child: &plan.SeqScanNode{Table: "items", Rows: plan.Estimates{Rows: float64(n)}},
				Pred:  lowIDs,
				Rows:  plan.Estimates{Rows: float64(n / 2)},
			},
			GroupBy: []int{1},
			Aggs:    []plan.AggSpec{{Fn: plan.Count, Arg: plan.Col(0)}, {Fn: plan.Sum, Arg: plan.Col(2)}},
			Rows:    plan.Estimates{Rows: 20, Distinct: 20},
		}},
		{name: "topn-over-chain", node: &plan.SortNode{
			Child: &plan.ProjectNode{
				Child: &plan.SeqScanNode{Table: "items", Filter: lowIDs, Rows: plan.Estimates{Rows: float64(n / 2)}},
				Exprs: []plan.Expr{plan.Col(0), plan.Arith{Op: plan.Add, L: plan.Col(2), R: plan.FloatConst(1)}},
			},
			Keys:  []plan.SortKey{{Col: 1, Desc: true}},
			Limit: 10,
		}},
		// pairs.id joins the 20 group numbers: the probe side materializes.
		{name: "hash-join-agg-probe", node: &plan.HashJoinNode{
			Left:      &plan.SeqScanNode{Table: "pairs", Rows: plan.Estimates{Rows: float64(n / 2)}},
			Right:     countByGroup(),
			LeftKeys:  []int{0},
			RightKeys: []int{0},
			Rows:      plan.Estimates{Rows: 20, Distinct: float64(n / 2)},
		}},
	}
}

// TestTranslatorMatchesExecutorAllModes pins the translator's emission to
// the executor's recorded OU stream in every execution mode — interpreted,
// compiled (fused), and vectorized — over a filtered scan, scan chains with
// wrapper filter/projection stages (seq- and idx-rooted), wrappers over an
// aggregate, an aggregation and a top-n consuming a chain, an index join, and
// hash joins with a streamed and a
// materialized probe side, on an unpartitioned database and on one hashed
// four ways (where every mode must take the partition exchange). This is the
// parity contract that makes PredictQuery's three-way mode pricing
// trustworthy.
func TestTranslatorMatchesExecutorAllModes(t *testing.T) {
	const n = 1000
	dbs := []struct {
		suffix string
		db     *engine.DB
		parts  int
	}{
		{"", indexItemsID(t, newVecTestDB(t, n)), 1},
		{"/parts4", indexItemsID(t, newPartitionedTestDB(t, n, 4, 2)), 4},
	}
	queries := parityQueries(n)
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
					if mode == catalog.Vectorize && vecRecs == 0 && !q.noVec {
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

// TestTranslatorWhatIfMatchesLive is the property planner.Price's
// repartition and set-dop what-ifs rest on: translating under the what-if
// overrides on an unpartitioned database emits the OU kinds and worker
// chains a plain translator emits on the database actually hashed that way
// at that DOP.
func TestTranslatorWhatIfMatchesLive(t *testing.T) {
	const n, parts, dop = 1000, 4, 2
	serial := indexItemsID(t, newVecTestDB(t, n))
	hashed := indexItemsID(t, newPartitionedTestDB(t, n, parts, dop))
	for _, q := range parityQueries(n) {
		for _, mode := range []catalog.ExecutionMode{catalog.Interpret, catalog.Compile, catalog.Vectorize} {
			t.Run(q.name+"/"+mode.String(), func(t *testing.T) {
				whatIf := &Translator{DB: serial, Mode: mode, PartitionsOverride: parts, DOPOverride: dop}
				got := whatIf.TranslatePlan(q.node)
				want := NewTranslator(hashed, mode).TranslatePlan(q.node)
				if len(got) != len(want) {
					t.Fatalf("what-if emits %d invocations, live %d", len(got), len(want))
				}
				for i := range want {
					if got[i].Kind != want[i].Kind || got[i].Chain != want[i].Chain {
						t.Errorf("invocation %d: what-if (%v, chain %d), live (%v, chain %d)",
							i, got[i].Kind, got[i].Chain, want[i].Kind, want[i].Chain)
					}
				}
			})
		}
	}
}
