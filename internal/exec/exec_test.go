package exec

import (
	"errors"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/hw"
	"mb2/internal/metrics"
	"mb2/internal/ou"
	"mb2/internal/plan"
	"mb2/internal/storage"
	"mb2/internal/wal"
)

// newTestDB builds a database with one "items" table (id, grp, val, name)
// loaded with n rows: id = i, grp = i % groups, val = float(i).
func newTestDB(t *testing.T, n, groups int) *engine.DB {
	t.Helper()
	db := engine.Open(catalog.DefaultKnobs())
	schema := catalog.NewSchema(
		catalog.Column{Name: "id", Type: catalog.Int64},
		catalog.Column{Name: "grp", Type: catalog.Int64},
		catalog.Column{Name: "val", Type: catalog.Float64},
		catalog.Column{Name: "name", Type: catalog.Varchar, Width: 12},
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
			storage.NewString("name"),
		}
	}
	if err := db.BulkLoad("items", rows); err != nil {
		t.Fatal(err)
	}
	return db
}

func testCtx(db *engine.DB) (*Ctx, *metrics.Collector) {
	col := metrics.NewCollector()
	ctx := &Ctx{
		DB:         db,
		Tracker:    metrics.NewTracker(col, hw.NewThread(hw.DefaultCPU())),
		Mode:       catalog.Interpret,
		Contenders: 1,
	}
	return ctx, col
}

func kindsOf(recs []metrics.Record) []ou.Kind {
	out := make([]ou.Kind, len(recs))
	for i, r := range recs {
		out[i] = r.Kind
	}
	return out
}

func TestSeqScanAll(t *testing.T) {
	db := newTestDB(t, 100, 10)
	ctx, col := testCtx(db)
	b, err := Execute(ctx, &plan.SeqScanNode{Table: "items"})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Rows) != 100 || b.RowIDs == nil {
		t.Fatalf("scan returned %d rows, rowIDs=%v", len(b.Rows), b.RowIDs != nil)
	}
	recs := col.Drain()
	if len(recs) != 1 || recs[0].Kind != ou.SeqScan {
		t.Fatalf("OU records = %v", kindsOf(recs))
	}
	if recs[0].Features[0] != 100 {
		t.Fatalf("num_rows feature = %v", recs[0].Features[0])
	}
	if recs[0].Labels.ElapsedUS <= 0 {
		t.Fatal("labels must carry time")
	}
}

func TestSeqScanFilterEmitsArithmetic(t *testing.T) {
	db := newTestDB(t, 100, 10)
	ctx, col := testCtx(db)
	pred := plan.Cmp{Op: plan.LT, L: plan.Col(0), R: plan.IntConst(30)}
	b, err := Execute(ctx, &plan.SeqScanNode{Table: "items", Filter: pred})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Rows) != 30 {
		t.Fatalf("filtered rows = %d, want 30", len(b.Rows))
	}
	recs := col.Drain()
	if len(recs) != 2 || recs[0].Kind != ou.SeqScan || recs[1].Kind != ou.Arithmetic {
		t.Fatalf("OU records = %v", kindsOf(recs))
	}
}

func TestSeqScanProject(t *testing.T) {
	db := newTestDB(t, 10, 2)
	ctx, _ := testCtx(db)
	b, err := Execute(ctx, &plan.SeqScanNode{Table: "items", Project: []int{2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Rows[0]) != 2 || b.Rows[3][1].I != 3 {
		t.Fatalf("projection wrong: %v", b.Rows[3])
	}
	if b.RowIDs != nil {
		t.Fatal("projection must drop row identities")
	}
}

func createIdx(t *testing.T, db *engine.DB, name string, cols []string) {
	t.Helper()
	if _, _, err := db.CreateIndex(nil, hw.DefaultCPU(), name, "items", cols, false, 2); err != nil {
		t.Fatal(err)
	}
}

func TestIdxScanPointAndRange(t *testing.T) {
	db := newTestDB(t, 1000, 10)
	createIdx(t, db, "items_id", []string{"id"})
	ctx, col := testCtx(db)

	b, err := Execute(ctx, &plan.IdxScanNode{
		Table: "items", Index: "items_id",
		Eq: []storage.Value{storage.NewInt(42)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Rows) != 1 || b.Rows[0][0].I != 42 {
		t.Fatalf("point lookup = %v", b.Rows)
	}
	recs := col.Drain()
	if len(recs) != 1 || recs[0].Kind != ou.IdxScan {
		t.Fatalf("OU records = %v", kindsOf(recs))
	}

	b, err = Execute(ctx, &plan.IdxScanNode{
		Table: "items", Index: "items_id",
		Lo: []storage.Value{storage.NewInt(10)},
		Hi: []storage.Value{storage.NewInt(19)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Rows) != 10 {
		t.Fatalf("range lookup = %d rows", len(b.Rows))
	}
}

func TestHashJoin(t *testing.T) {
	db := newTestDB(t, 100, 10)
	ctx, col := testCtx(db)
	// Self-join on grp: each row matches 10 rows → 1000 output rows.
	j := &plan.HashJoinNode{
		Left:      &plan.SeqScanNode{Table: "items"},
		Right:     &plan.SeqScanNode{Table: "items"},
		LeftKeys:  []int{1},
		RightKeys: []int{1},
	}
	b, err := Execute(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Rows) != 1000 {
		t.Fatalf("join rows = %d, want 1000", len(b.Rows))
	}
	if len(b.Rows[0]) != 8 {
		t.Fatalf("joined width = %d", len(b.Rows[0]))
	}
	recs := col.Drain()
	want := []ou.Kind{ou.SeqScan, ou.SeqScan, ou.HashJoinBuild, ou.HashJoinProbe}
	got := kindsOf(recs)
	if len(got) != len(want) {
		t.Fatalf("OU records = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("OU records = %v, want %v", got, want)
		}
	}
	// Build OU records the actual key cardinality.
	if recs[2].Features[3] != 10 {
		t.Fatalf("build cardinality = %v, want 10", recs[2].Features[3])
	}
}

func TestIndexJoin(t *testing.T) {
	db := newTestDB(t, 100, 10)
	createIdx(t, db, "items_grp", []string{"grp"})
	ctx, col := testCtx(db)
	j := &plan.IndexJoinNode{
		Outer:     &plan.SeqScanNode{Table: "items", Filter: plan.Cmp{Op: plan.LT, L: plan.Col(0), R: plan.IntConst(5)}},
		Table:     "items",
		Index:     "items_grp",
		OuterKeys: []int{1},
	}
	b, err := Execute(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Rows) != 50 { // 5 outer rows x 10 matches each
		t.Fatalf("index join rows = %d, want 50", len(b.Rows))
	}
	var idxRec *metrics.Record
	for i, r := range col.Drain() {
		r := r
		if r.Kind == ou.IdxScan {
			idxRec = &r
			_ = i
		}
	}
	if idxRec == nil {
		t.Fatal("index join must emit IDX_SCAN")
	}
	if idxRec.Features[5] != 5 {
		t.Fatalf("loops feature = %v, want 5", idxRec.Features[5])
	}

	// Compiled, over an index scan: the outer chain is the plan's one fused
	// pipeline; the join itself has a single body for every mode.
	cctx, _ := testCtx(db)
	cctx.Mode = catalog.Compile
	j.Outer = &plan.IdxScanNode{Table: "items", Index: "items_grp", Eq: []storage.Value{storage.NewInt(3)}}
	if b, err = Execute(cctx, j); err != nil {
		t.Fatal(err)
	}
	if len(b.Rows) != 100 { // 10 outer rows x 10 matches each
		t.Fatalf("compiled index join rows = %d, want 100", len(b.Rows))
	}
	if cctx.FusedPipelines != 1 {
		t.Fatalf("FusedPipelines = %d, want 1 (the outer chain only)", cctx.FusedPipelines)
	}
}

func TestAggregation(t *testing.T) {
	db := newTestDB(t, 100, 10)
	ctx, col := testCtx(db)
	a := &plan.AggNode{
		Child:   &plan.SeqScanNode{Table: "items"},
		GroupBy: []int{1},
		Aggs: []plan.AggSpec{
			{Fn: plan.Count, Arg: plan.Col(0)},
			{Fn: plan.Sum, Arg: plan.Col(2)},
			{Fn: plan.Min, Arg: plan.Col(2)},
			{Fn: plan.Max, Arg: plan.Col(2)},
			{Fn: plan.Avg, Arg: plan.Col(2)},
		},
	}
	b, err := Execute(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Rows) != 10 {
		t.Fatalf("groups = %d, want 10", len(b.Rows))
	}
	// Group 0 holds ids 0,10,...,90: count 10, sum 450, min 0, max 90, avg 45.
	for _, r := range b.Rows {
		if r[0].I == 0 {
			if r[1].I != 10 || r[2].Float() != 450 || r[3].Float() != 0 || r[4].Float() != 90 || r[5].Float() != 45 {
				t.Fatalf("group 0 aggs wrong: %v", r)
			}
		}
	}
	recs := kindsOf(col.Drain())
	if recs[len(recs)-2] != ou.AggBuild || recs[len(recs)-1] != ou.AggProbe {
		t.Fatalf("OU records = %v", recs)
	}
}

func TestSortAndLimit(t *testing.T) {
	db := newTestDB(t, 100, 10)
	ctx, col := testCtx(db)
	s := &plan.SortNode{
		Child: &plan.SeqScanNode{Table: "items"},
		Keys:  []plan.SortKey{{Col: 0, Desc: true}},
		Limit: 5,
	}
	b, err := Execute(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Rows) != 5 || b.Rows[0][0].I != 99 || b.Rows[4][0].I != 95 {
		t.Fatalf("sort+limit wrong: %v", b.Rows)
	}
	recs := kindsOf(col.Drain())
	if recs[len(recs)-2] != ou.SortBuild || recs[len(recs)-1] != ou.SortIter {
		t.Fatalf("OU records = %v", recs)
	}
}

// TestTopNResultIsRightSized: a sort with a limit returns exactly its first
// Limit rows on every driver, in a pooled array of that size class whose
// slots past the limit hold nothing, so the result keeps neither the sort
// buffer nor the input tuples past the limit. Without a limit the result is
// the whole sort buffer.
func TestTopNResultIsRightSized(t *testing.T) {
	const rows, limit = 500, 10
	plain, parted := newTestDB(t, rows, 10), newTestDB(t, rows, 10)
	knobs := parted.Knobs()
	knobs.PartitionCount = 4
	parted.SetKnobs(knobs)
	for _, c := range []struct {
		name string
		db   *engine.DB
		mode catalog.ExecutionMode
		dop  int
	}{
		{"Materialize", plain, catalog.Interpret, 1},
		{"RowPass", plain, catalog.Compile, 1},
		{"VecPass", plain, catalog.Vectorize, 1},
		{"Exchange", parted, catalog.Interpret, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			ctx, _ := testCtx(c.db)
			ctx.Mode, ctx.DOP = c.mode, c.dop
			for _, lim := range []int{limit, rows + 1, 0} {
				s := &plan.SortNode{Child: &plan.SeqScanNode{Table: "items"}, Keys: []plan.SortKey{{Col: 0, Desc: true}}, Limit: lim}
				b, err := Execute(ctx, s)
				if err != nil {
					t.Fatal(err)
				}
				want := min(rows, lim)
				if lim == 0 {
					want = rows
				}
				if len(b.Rows) != want || b.Rows[0][0].I != rows-1 || b.Rows[want-1][0].I != int64(rows-want) {
					t.Fatalf("limit %d: %d rows from %v to %v, want %d from %d", lim, len(b.Rows), b.Rows[0], b.Rows[len(b.Rows)-1], want, rows-1)
				}
				if lim > 0 && (cap(b.Rows) != cap(pooledRows(want)) || slices.ContainsFunc(b.Rows[want:cap(b.Rows)], func(r storage.Tuple) bool { return r != nil })) {
					t.Fatalf("limit %d: %d rows in an array of capacity %d holding %v past them", lim, want, cap(b.Rows), b.Rows[want:cap(b.Rows)])
				}
			}
		})
	}
}

func TestProjectAndOutput(t *testing.T) {
	db := newTestDB(t, 10, 2)
	ctx, col := testCtx(db)
	p := &plan.OutputNode{Child: &plan.ProjectNode{
		Child: &plan.SeqScanNode{Table: "items"},
		Exprs: []plan.Expr{plan.Arith{Op: plan.Mul, L: plan.Col(0), R: plan.IntConst(2)}},
	}}
	b, err := Execute(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if b.Rows[3][0].I != 6 {
		t.Fatalf("projection math wrong: %v", b.Rows[3])
	}
	recs := kindsOf(col.Drain())
	if recs[len(recs)-1] != ou.Output || recs[len(recs)-2] != ou.Arithmetic {
		t.Fatalf("OU records = %v", recs)
	}
}

// TestCommitLabelExcludesIndexDrops: the index entries a commit retires are
// dropped after its TXN_COMMIT bracket closes, so committing the same
// DELETE labels that OU alike whether or not the table is indexed.
func TestCommitLabelExcludesIndexDrops(t *testing.T) {
	commitLabel := func(indexed bool) hw.Metrics {
		db := newTestDB(t, 10, 2)
		if indexed {
			createIdx(t, db, "items_id2", []string{"id"})
		}
		ctx, col := testCtx(db)
		ctx.Begin()
		if _, err := Execute(ctx, &plan.DeleteNode{Table: "items", Child: &plan.SeqScanNode{Table: "items",
			Filter: plan.Cmp{Op: plan.LT, L: plan.Col(0), R: plan.IntConst(5)}}}); err != nil {
			t.Fatal(err)
		}
		col.Drain()
		if err := ctx.Commit(); err != nil {
			t.Fatal(err)
		}
		recs := col.Drain()
		if len(recs) != 1 || recs[0].Kind != ou.TxnCommit {
			t.Fatalf("commit OU records = %v", kindsOf(recs))
		}
		return recs[0].Labels
	}
	if with, without := commitLabel(true), commitLabel(false); with != without {
		t.Fatalf("TXN_COMMIT label with index drops %+v, without %+v", with, without)
	}
}

func TestInsertUpdateDeleteLifecycle(t *testing.T) {
	db := newTestDB(t, 10, 2)
	createIdx(t, db, "items_id2", []string{"id"})
	ctx, col := testCtx(db)

	// INSERT
	ctx.Begin()
	_, err := Execute(ctx, &plan.InsertNode{Table: "items", Tuples: []storage.Tuple{
		{storage.NewInt(100), storage.NewInt(1), storage.NewFloat(1), storage.NewString("new")},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.Commit(); err != nil {
		t.Fatal(err)
	}

	probe := func() int {
		b, err := Execute(ctx, &plan.IdxScanNode{Table: "items", Index: "items_id2",
			Eq: []storage.Value{storage.NewInt(100)}})
		if err != nil {
			t.Fatal(err)
		}
		return len(b.Rows)
	}
	if probe() != 1 {
		t.Fatal("inserted row not visible via index")
	}

	// UPDATE via index scan child.
	ctx.Begin()
	_, err = Execute(ctx, &plan.UpdateNode{
		Child: &plan.IdxScanNode{Table: "items", Index: "items_id2",
			Eq: []storage.Value{storage.NewInt(100)}},
		Table:    "items",
		SetCols:  []int{2},
		SetExprs: []plan.Expr{plan.FloatConst(99)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.Commit(); err != nil {
		t.Fatal(err)
	}
	b, _ := Execute(ctx, &plan.IdxScanNode{Table: "items", Index: "items_id2",
		Eq: []storage.Value{storage.NewInt(100)}})
	if b.Rows[0][2].Float() != 99 {
		t.Fatalf("update lost: %v", b.Rows[0])
	}

	// UPDATE that moves an index key.
	ctx.Begin()
	_, err = Execute(ctx, &plan.UpdateNode{
		Child: &plan.IdxScanNode{Table: "items", Index: "items_id2",
			Eq: []storage.Value{storage.NewInt(100)}},
		Table:    "items",
		SetCols:  []int{0},
		SetExprs: []plan.Expr{plan.IntConst(200)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.Commit(); err != nil {
		t.Fatal(err)
	}
	if probe() != 0 {
		t.Fatal("old index key must be gone")
	}
	b, _ = Execute(ctx, &plan.IdxScanNode{Table: "items", Index: "items_id2",
		Eq: []storage.Value{storage.NewInt(200)}})
	if len(b.Rows) != 1 {
		t.Fatal("new index key missing")
	}

	// DELETE
	ctx.Begin()
	_, err = Execute(ctx, &plan.DeleteNode{
		Child: &plan.IdxScanNode{Table: "items", Index: "items_id2",
			Eq: []storage.Value{storage.NewInt(200)}},
		Table: "items",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.Commit(); err != nil {
		t.Fatal(err)
	}
	b, _ = Execute(ctx, &plan.IdxScanNode{Table: "items", Index: "items_id2",
		Eq: []storage.Value{storage.NewInt(200)}})
	if len(b.Rows) != 0 {
		t.Fatal("deleted row still visible")
	}

	// The lifecycle must have produced INSERT/UPDATE/DELETE and txn OUs.
	seen := map[ou.Kind]bool{}
	for _, k := range kindsOf(col.Drain()) {
		seen[k] = true
	}
	for _, k := range []ou.Kind{ou.Insert, ou.Update, ou.Delete, ou.TxnBegin, ou.TxnCommit} {
		if !seen[k] {
			t.Errorf("missing OU %v in lifecycle", k)
		}
	}
}

func TestDMLWithoutTxnFails(t *testing.T) {
	db := newTestDB(t, 5, 1)
	ctx, _ := testCtx(db)
	if _, err := Execute(ctx, &plan.InsertNode{Table: "items"}); err == nil {
		t.Fatal("insert without txn must fail")
	}
}

func TestAbortRollsBackDML(t *testing.T) {
	db := newTestDB(t, 10, 2)
	ctx, _ := testCtx(db)
	ctx.Begin()
	_, err := Execute(ctx, &plan.UpdateNode{
		Child:    &plan.SeqScanNode{Table: "items", Filter: plan.Cmp{Op: plan.EQ, L: plan.Col(0), R: plan.IntConst(3)}},
		Table:    "items",
		SetCols:  []int{2},
		SetExprs: []plan.Expr{plan.FloatConst(-1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.Abort(); err != nil {
		t.Fatal(err)
	}
	b, _ := Execute(ctx, &plan.SeqScanNode{Table: "items", Filter: plan.Cmp{Op: plan.EQ, L: plan.Col(0), R: plan.IntConst(3)}})
	if b.Rows[0][2].Float() != 3 {
		t.Fatalf("abort did not roll back: %v", b.Rows[0])
	}
}

func TestCompiledModeIsFaster(t *testing.T) {
	db := newTestDB(t, 5000, 10)
	run := func(mode catalog.ExecutionMode) float64 {
		ctx, col := testCtx(db)
		ctx.Mode = mode
		pred := plan.Cmp{Op: plan.LT, L: plan.Col(2), R: plan.FloatConst(2500)}
		if _, err := Execute(ctx, &plan.SeqScanNode{Table: "items", Filter: pred}); err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for _, r := range col.Drain() {
			total += r.Labels.ElapsedUS
		}
		return total
	}
	interp := run(catalog.Interpret)
	comp := run(catalog.Compile)
	if comp >= interp {
		t.Fatalf("compiled must be faster: %v vs %v", comp, interp)
	}
	if interp/comp < 1.3 {
		t.Fatalf("mode gap too small to model: %v", interp/comp)
	}
}

func TestBackgroundTasks(t *testing.T) {
	db := newTestDB(t, 50, 5)
	ctx, col := testCtx(db)

	// Generate write traffic.
	ctx.Begin()
	if _, err := Execute(ctx, &plan.UpdateNode{
		Child:    &plan.SeqScanNode{Table: "items"},
		Table:    "items",
		SetCols:  []int{2},
		SetExprs: []plan.Expr{plan.Arith{Op: plan.Add, L: plan.Col(2), R: plan.FloatConst(1)}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Commit(); err != nil {
		t.Fatal(err)
	}

	ser := RunLogSerialize(ctx, 10000)
	if ser.Records != 51 { // 50 updates + 1 commit record
		t.Fatalf("serialized %d records", ser.Records)
	}
	fl, err := RunLogFlush(ctx, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if fl.Bytes <= 0 || fl.Blocks <= 0 {
		t.Fatalf("flush stats: %+v", fl)
	}
	gcStats := RunGC(ctx, 50000)
	if gcStats.VersionsPruned != 50 {
		t.Fatalf("GC pruned %d, want 50", gcStats.VersionsPruned)
	}

	seen := map[ou.Kind]int{}
	for _, k := range kindsOf(col.Drain()) {
		seen[k]++
	}
	for _, k := range []ou.Kind{ou.LogSerialize, ou.LogFlush, ou.GC} {
		if seen[k] != 1 {
			t.Errorf("OU %v recorded %d times", k, seen[k])
		}
	}
}

// TestMaintainerCountsExactlyUnderConcurrency: Finished from racing
// goroutines runs exactly one pass per `every` calls; a pass whose
// after-flush hook fails returns that error to its caller and is not
// counted, and the passes flush the queue and prune the old versions.
func TestMaintainerCountsExactlyUnderConcurrency(t *testing.T) {
	db := newTestDB(t, 50, 5)
	ctx, _ := testCtx(db)
	ctx.Begin()
	if _, err := Execute(ctx, &plan.UpdateNode{
		Child:    &plan.SeqScanNode{Table: "items"},
		Table:    "items",
		SetCols:  []int{2},
		SetExprs: []plan.Expr{plan.Arith{Op: plan.Add, L: plan.Col(2), R: plan.FloatConst(1)}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Commit(); err != nil {
		t.Fatal(err)
	}
	errShip := errors.New("ship failed")
	hooks := 0 // guarded by the maintainer's log half
	m := NewMaintainer(db, 10, func() error {
		if hooks++; hooks == 3 {
			return errShip
		}
		return nil
	})
	var mu sync.Mutex
	var failed []error
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := m.Finished(); err != nil {
					mu.Lock()
					failed = append(failed, err)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	st := m.Stats()
	if len(failed) != 1 || !errors.Is(failed[0], errShip) || hooks != 10 {
		t.Fatalf("hook ran %d times, Finished returned %v; want 10 and one %v", hooks, failed, errShip)
	}
	if st.Passes != 9 || st.FlushedBytes == 0 || st.VersionsPruned != 50 || db.WAL.PendingRecords() != 0 {
		t.Fatalf("after 100 Finished calls at every=10: %+v, %d records queued", st, db.WAL.PendingRecords())
	}
}

func TestWriteConflictSurfacesFromUpdate(t *testing.T) {
	db := newTestDB(t, 10, 2)
	ctx1, _ := testCtx(db)
	ctx2, _ := testCtx(db)
	target := plan.Cmp{Op: plan.EQ, L: plan.Col(0), R: plan.IntConst(1)}
	upd := func(v float64) *plan.UpdateNode {
		return &plan.UpdateNode{
			Child:    &plan.SeqScanNode{Table: "items", Filter: target},
			Table:    "items",
			SetCols:  []int{2},
			SetExprs: []plan.Expr{plan.FloatConst(v)},
		}
	}
	ctx1.Begin()
	ctx2.Begin()
	if _, err := Execute(ctx1, upd(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(ctx2, upd(2)); err == nil {
		t.Fatal("concurrent update must conflict")
	}
	if err := ctx2.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := ctx1.Commit(); err != nil {
		t.Fatal(err)
	}
}

// A maintainer's cadence bounds the WAL queue a pass drains, and the WAL
// keeps that queue's storage for the next cycle: once warm, enqueueing a
// cycle's records allocates nothing, even past the 4 096 records of spare
// a manager keeps on its own. The collector is off: a collection whose mark
// phase ends inside the measured window makes the runtime allocate on its
// own account (the mark worker draws a sudog in gcMarkDone, and every
// collection empties the central sudog cache), which the process-wide
// Mallocs count would charge to Enqueue. SetGCPercent(-1) returns only once
// a running mark has finished.
func TestMaintainerCadenceKeepsWALQueue(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	db := newTestDB(t, 10, 2)
	m := NewMaintainer(db, 4096, nil)
	const records = 4200 // about what 2 100 single-row write transactions log
	r := wal.Record{Type: wal.RecordInsert, TableID: int32(db.Table("items").Meta.ID),
		Payload: storage.Tuple{storage.NewInt(1)}}
	for cycle := 0; cycle < 4; cycle++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < records; i++ {
			if err := db.WAL.Enqueue(nil, r); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		// The first two cycles grow the queue and the spare it alternates with.
		if n := after.Mallocs - before.Mallocs; cycle > 1 && n > 0 {
			t.Fatalf("cycle %d: enqueueing %d records allocated %d objects", cycle, records, n)
		}
		if err := m.Pass(); err != nil {
			t.Fatal(err)
		}
	}
}
