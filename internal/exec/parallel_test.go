package exec_test

// Determinism and equivalence tests for partitioned parallel execution: the
// parallel operators must return the same result multiset as the serial
// path, must be bit-for-bit reproducible at any DOP, and their OU record
// streams must differ across DOP only in the dop feature — the contract
// that makes DOP a safely sweepable knob and a predictable action.

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/exec"
	"mb2/internal/hw"
	"mb2/internal/metrics"
	"mb2/internal/ou"
	"mb2/internal/plan"
	"mb2/internal/runner"
	"mb2/internal/storage"
)

func newPartitionedDB(t *testing.T, parts, rows int) *engine.DB {
	t.Helper()
	knobs := catalog.DefaultKnobs()
	knobs.PartitionCount = parts
	db := engine.Open(knobs)
	if err := loadPartTables(db, rows); err != nil {
		t.Fatal(err)
	}
	return db
}

// loadPartTables creates and fills part_items(id, grp, val) and
// part_dim(id, name), both keyed (and, on a partitioned engine, hashed) on
// id.
func loadPartTables(db *engine.DB, rows int) error {
	schema := catalog.NewSchema(
		catalog.Column{Name: "id", Type: catalog.Int64},
		catalog.Column{Name: "grp", Type: catalog.Int64},
		catalog.Column{Name: "val", Type: catalog.Float64},
	)
	if _, err := db.CreateTable("part_items", schema); err != nil {
		return err
	}
	dimSchema := catalog.NewSchema(
		catalog.Column{Name: "id", Type: catalog.Int64},
		catalog.Column{Name: "name", Type: catalog.Varchar, Width: 12},
	)
	if _, err := db.CreateTable("part_dim", dimSchema); err != nil {
		return err
	}
	tuples := make([]storage.Tuple, rows)
	for i := range tuples {
		tuples[i] = storage.Tuple{
			storage.NewInt(int64(i)),
			storage.NewInt(int64(i % 16)),
			storage.NewFloat(float64(i) * 1.5),
		}
	}
	if err := db.BulkLoad("part_items", tuples); err != nil {
		return err
	}
	dims := make([]storage.Tuple, rows)
	for i := range dims {
		dims[i] = storage.Tuple{
			storage.NewInt(int64(i)),
			storage.NewString(fmt.Sprintf("d%03d", i%97)),
		}
	}
	return db.BulkLoad("part_dim", dims)
}

// chainShapes is the equivalence tests' extra benchmark: every way a scan
// chain can wrap a scan, the hash joins that stream or partition one, and an
// aggregation and a sort consuming each chain, over loadPartTables' tables.
// The SmallBank/TATP/TPC-H templates reach few of these shapes, and none on
// a partitioned table.
type chainShapes struct{}

func (chainShapes) Name() string { return "shapes" }

func (chainShapes) Load(db *engine.DB, _ float64, _ int64) error {
	if err := loadPartTables(db, 2500); err != nil {
		return err
	}
	_, _, err := db.CreateIndex(nil, hw.DefaultCPU(), "part_items_id", "part_items", []string{"id"}, true, 1)
	return err
}

func (chainShapes) Templates(*engine.DB, int64) []runner.QueryTemplate {
	scan := func(table string) *plan.SeqScanNode { return &plan.SeqScanNode{Table: table} }
	lowGrp := plan.Cmp{Op: plan.LT, L: plan.Col(1), R: plan.IntConst(8)}
	filtered := func() plan.Node { return &plan.FilterNode{Child: scan("part_items"), Pred: lowGrp} }
	join := func(right plan.Node) plan.Node {
		return &plan.HashJoinNode{Left: scan("part_dim"), Right: right, LeftKeys: []int{0}, RightKeys: []int{0}}
	}
	// Every chain shape, with the columns of its output a breaker above it
	// groups by (low-cardinality) and sorts by / aggregates (unique, numeric).
	chains := []struct {
		name     string
		plan     plan.Node
		grp, val int
	}{
		{"scan", scan("part_items"), 1, 2},
		{"scan[filter]", &plan.SeqScanNode{Table: "part_items", Filter: lowGrp}, 1, 2},
		{"scan[project]", &plan.SeqScanNode{Table: "part_items", Project: []int{2, 1}}, 1, 0},
		{"scan[filter,project]", &plan.SeqScanNode{Table: "part_items", Filter: lowGrp, Project: []int{2, 1}}, 1, 0},
		{"filter(scan)", filtered(), 1, 2},
		{"project(filter(scan))", &plan.ProjectNode{Child: filtered(), Exprs: []plan.Expr{
			plan.Col(1), plan.Arith{Op: plan.Add, L: plan.Col(2), R: plan.FloatConst(1)},
		}}, 0, 1},
		{"idx[filter]", &plan.IdxScanNode{Table: "part_items", Index: "part_items_id", Filter: lowGrp,
			Lo: []storage.Value{storage.NewInt(100)}, Hi: []storage.Value{storage.NewInt(900)}}, 1, 2},
		{"empty", &plan.SeqScanNode{Table: "part_items",
			Filter: plan.Cmp{Op: plan.LT, L: plan.Col(1), R: plan.IntConst(0)}}, 1, 2},
	}
	out := []runner.QueryTemplate{
		{Name: "join(scan,scan)", Plan: join(scan("part_items"))},
		{Name: "join(scan,filter(scan))", Plan: join(filtered())},
	}
	val := plan.Col(2)
	for _, c := range chains {
		keys := []plan.SortKey{{Col: c.val, Desc: true}}
		out = append(out,
			runner.QueryTemplate{Name: c.name, Plan: c.plan},
			runner.QueryTemplate{Name: "agg(" + c.name + ")", Plan: &plan.AggNode{Child: c.plan, GroupBy: []int{c.grp},
				Aggs: []plan.AggSpec{{Fn: plan.Count, Arg: plan.Col(c.grp)}, {Fn: plan.Sum, Arg: plan.Col(c.val)}}}},
			runner.QueryTemplate{Name: "sort(" + c.name + ")", Plan: &plan.SortNode{Child: c.plan, Keys: keys}},
			runner.QueryTemplate{Name: "top10(" + c.name + ")", Plan: &plan.SortNode{Child: c.plan, Keys: keys, Limit: 10}},
		)
	}
	return append(out,
		runner.QueryTemplate{Name: "agg[varchar key](scan)", Plan: &plan.AggNode{Child: scan("part_dim"), GroupBy: []int{1},
			Aggs: []plan.AggSpec{{Fn: plan.Count, Arg: plan.Col(0)}, {Fn: plan.Max, Arg: plan.Col(0)}}}},
		runner.QueryTemplate{Name: "agg[all fns](filter(scan))", Plan: &plan.AggNode{Child: filtered(), GroupBy: []int{1},
			Aggs: []plan.AggSpec{{Fn: plan.Count, Arg: val}, {Fn: plan.Sum, Arg: val}, {Fn: plan.Min, Arg: val},
				{Fn: plan.Max, Arg: val}, {Fn: plan.Avg, Arg: plan.Arith{Op: plan.Add, L: val, R: plan.FloatConst(1)}}}}},
		runner.QueryTemplate{Name: "agg[no group](scan[filter])", Plan: &plan.AggNode{
			Child: &plan.SeqScanNode{Table: "part_items", Filter: lowGrp},
			Aggs:  []plan.AggSpec{{Fn: plan.Count, Arg: val}, {Fn: plan.Avg, Arg: val}}}},
	)
}

func runScan(t *testing.T, db *engine.DB, dop int, mode catalog.ExecutionMode) (*exec.Batch, []metrics.Record) {
	t.Helper()
	col := metrics.NewCollector()
	ctx := &exec.Ctx{
		DB:      db,
		Tracker: metrics.NewTracker(col, hw.NewThread(hw.DefaultCPU())),
		Mode:    mode, Contenders: 1, DOP: dop,
	}
	pred := plan.Cmp{Op: plan.LT, L: plan.Col(1), R: plan.IntConst(8)}
	b, err := exec.Execute(ctx, &plan.SeqScanNode{Table: "part_items", Filter: pred})
	if err != nil {
		t.Fatal(err)
	}
	return b, col.Drain()
}

func runJoin(t *testing.T, db *engine.DB, dop int, mode catalog.ExecutionMode) (*exec.Batch, []metrics.Record) {
	t.Helper()
	col := metrics.NewCollector()
	ctx := &exec.Ctx{
		DB:      db,
		Tracker: metrics.NewTracker(col, hw.NewThread(hw.DefaultCPU())),
		Mode:    mode, Contenders: 1, DOP: dop,
	}
	q := &plan.HashJoinNode{
		Left:      &plan.SeqScanNode{Table: "part_dim"},
		Right:     &plan.SeqScanNode{Table: "part_items"},
		LeftKeys:  []int{0},
		RightKeys: []int{0},
	}
	b, err := exec.Execute(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	return b, col.Drain()
}

func rowStrings(b *exec.Batch) []string {
	out := make([]string, len(b.Rows))
	for i, r := range b.Rows {
		out[i] = fmt.Sprintf("%v", r)
	}
	return out
}

func sortedCopy(xs []string) []string {
	out := append([]string(nil), xs...)
	sort.Strings(out)
	return out
}

// TestParallelScanMatchesSerial: the partitioned scan must return exactly
// the rows the unpartitioned scan returns.
func TestParallelScanMatchesSerial(t *testing.T) {
	const rows = 3000
	serialDB := newPartitionedDB(t, 1, rows)
	partDB := newPartitionedDB(t, 4, rows)
	want, serialRecs := runScan(t, serialDB, 1, catalog.Interpret)
	for _, k := range []ou.Kind{ou.SeqScan, ou.Arithmetic} {
		found := false
		for _, r := range serialRecs {
			if r.Kind == k {
				found = true
			}
		}
		if !found {
			t.Fatalf("serial path must emit %v", k)
		}
	}
	for _, dop := range []int{1, 2, 4} {
		got, recs := runScan(t, partDB, dop, catalog.Interpret)
		if !reflect.DeepEqual(sortedCopy(rowStrings(got)), sortedCopy(rowStrings(want))) {
			t.Fatalf("dop=%d: result multiset differs from serial scan", dop)
		}
		var kinds []ou.Kind
		for _, r := range recs {
			kinds = append(kinds, r.Kind)
		}
		wantKinds := []ou.Kind{ou.ParallelScan, ou.ParallelScan, ou.ParallelScan, ou.ParallelScan,
			ou.ExchangeMerge, ou.Arithmetic}
		if !reflect.DeepEqual(kinds, wantKinds) {
			t.Fatalf("dop=%d: OU stream %v, want %v", dop, kinds, wantKinds)
		}
	}
}

// TestExchangeCountsExactUnderRepartition: a Repartition that lands in the
// middle of an exchange scan must neither lose nor duplicate rows. One
// goroutine flips a table between 2 and 4 partitions while another counts it
// through the Exchange; every count is exact.
func TestExchangeCountsExactUnderRepartition(t *testing.T) {
	const rows, counts = 30000, 500
	db := newPartitionedDB(t, 2, rows)
	tbl := db.Table("part_items")
	q := &plan.AggNode{Child: &plan.SeqScanNode{Table: "part_items"},
		Aggs: []plan.AggSpec{{Fn: plan.Count, Arg: plan.Col(0)}}}

	done := make(chan struct{})
	flipped := make(chan int)
	go func() {
		flips := 0
		for parts := 4; ; parts = 6 - parts {
			select {
			case <-done:
				flipped <- flips
				return
			default:
			}
			tbl.Repartition(nil, parts)
			flips++
		}
	}()
	ctx := exec.NewCtx(db, hw.DefaultCPU())
	ctx.Mode, ctx.DOP = catalog.Interpret, 2
	wrong := 0
	for i := 0; i < counts; i++ {
		b, err := exec.Execute(ctx, q)
		if err != nil {
			t.Error(err) // not Fatal: the flipper must still be stopped
			break
		}
		if got := b.Rows[0][0].I; got != rows {
			if wrong++; wrong <= 5 {
				t.Errorf("count %d: %d rows, want %d", i, got, rows)
			}
		}
	}
	close(done)
	t.Logf("%d repartitions during %d counts; %d wrong", <-flipped, counts, wrong)
}

// TestPartitionJoinCountsExactUnderRepartition is the shape above over the
// partition-wise join: while another goroutine flips one input between 2 and
// 4 partitions, every join of the two id-keyed tables (or of one with
// itself) returns exactly one match per id. Each side is read under one
// partition-latch hold, so no flip lands between a side's counts and its
// scans; a flip that lands before the holds, leaving the sides with
// different partition counts, still joins every row.
func TestPartitionJoinCountsExactUnderRepartition(t *testing.T) {
	const rows, joins = 5000, 60
	for _, c := range []struct{ name, left, right string }{
		{"flip_build", "part_items", "part_dim"}, // the build side sorts after the probe side
		{"flip_probe", "part_dim", "part_items"},
		{"self_join", "part_items", "part_items"},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := newPartitionedDB(t, 2, rows)
			tbl := db.Table("part_items")
			q := &plan.HashJoinNode{Left: &plan.SeqScanNode{Table: c.left}, Right: &plan.SeqScanNode{Table: c.right},
				LeftKeys: []int{0}, RightKeys: []int{0}}

			done := make(chan struct{})
			flipped := make(chan int)
			go func() {
				flips := 0
				for parts := 4; ; parts = 6 - parts {
					select {
					case <-done:
						flipped <- flips
						return
					default:
					}
					tbl.Repartition(nil, parts)
					flips++
				}
			}()
			ctx := exec.NewCtx(db, hw.DefaultCPU())
			ctx.Mode, ctx.DOP = catalog.Interpret, 2
			wrong := 0
			for i := 0; i < joins; i++ {
				b, err := exec.Execute(ctx, q)
				if err != nil {
					t.Error(err) // not Fatal: the flipper must still be stopped
					break
				}
				if got := len(b.Rows); got != rows {
					if wrong++; wrong <= 5 {
						t.Errorf("join %d: %d rows, want %d", i, got, rows)
					}
				}
			}
			close(done)
			t.Logf("%d repartitions during %d joins; %d wrong", <-flipped, joins, wrong)
		})
	}
}

// TestParallelScanDeterministicAcrossDOPAndRuns: for each DOP the execution
// must be bit-for-bit reproducible, the merged row ORDER must be invariant
// across DOP (it depends only on the partition directory), and per-partition
// records must differ across DOP only in the dop feature.
func TestParallelScanDeterministicAcrossDOPAndRuns(t *testing.T) {
	const rows = 2000
	db := newPartitionedDB(t, 4, rows)

	type run struct {
		rows []string
		recs []metrics.Record
	}
	byDOP := map[int]run{}
	for _, dop := range []int{1, 2, 4} {
		first, firstRecs := runScan(t, db, dop, catalog.Compile)
		for rep := 0; rep < 5; rep++ {
			again, againRecs := runScan(t, db, dop, catalog.Compile)
			if !reflect.DeepEqual(rowStrings(again), rowStrings(first)) {
				t.Fatalf("dop=%d rep=%d: row order not reproducible", dop, rep)
			}
			if !reflect.DeepEqual(againRecs, firstRecs) {
				t.Fatalf("dop=%d rep=%d: OU records not bit-identical across runs", dop, rep)
			}
		}
		byDOP[dop] = run{rows: rowStrings(first), recs: firstRecs}
	}
	base := byDOP[1]
	dopFeat := -1
	for i, name := range ou.Get(ou.ParallelScan).FeatureNames {
		if name == "dop" {
			dopFeat = i
		}
	}
	for _, dop := range []int{2, 4} {
		r := byDOP[dop]
		if !reflect.DeepEqual(r.rows, base.rows) {
			t.Fatalf("dop=%d: merged row order differs from dop=1", dop)
		}
		if len(r.recs) != len(base.recs) {
			t.Fatalf("dop=%d: %d records vs %d at dop=1", dop, len(r.recs), len(base.recs))
		}
		for i, rec := range r.recs {
			if rec.Kind != base.recs[i].Kind {
				t.Fatalf("dop=%d: record %d kind %v vs %v", dop, i, rec.Kind, base.recs[i].Kind)
			}
			if rec.Kind != ou.ParallelScan {
				continue
			}
			if rec.Labels != base.recs[i].Labels {
				t.Fatalf("dop=%d: record %d labels differ across DOP", dop, i)
			}
			for j, f := range rec.Features {
				if j == dopFeat {
					if f != float64(dop) {
						t.Fatalf("dop=%d: record %d dop feature = %v", dop, i, f)
					}
					continue
				}
				if f != base.recs[i].Features[j] {
					t.Fatalf("dop=%d: record %d feature %d differs: %v vs %v",
						dop, i, j, f, base.recs[i].Features[j])
				}
			}
		}
	}

	// The exchange materializes: a partition scan or a partition-wise join
	// is not a fused pipeline, whatever the mode.
	ctx := exec.NewCtx(db, hw.DefaultCPU())
	ctx.Mode, ctx.DOP = catalog.Compile, 2
	for _, q := range (chainShapes{}).Templates(db, 0) {
		if q.Name != "scan[filter]" && q.Name != "join(scan,scan)" {
			continue
		}
		if _, err := exec.Execute(ctx, q.Plan); err != nil {
			t.Fatal(err)
		}
	}
	if ctx.FusedPipelines != 0 {
		t.Fatalf("partitioned scan and join counted as %d fused pipelines", ctx.FusedPipelines)
	}
}

// TestPartitionJoinMatchesSerial: the partition-wise join must produce the
// serial hash join's exact result multiset and a deterministic stream of
// one PARTITION_PROBE per partition plus the exchange merge.
func TestPartitionJoinMatchesSerial(t *testing.T) {
	const rows = 1500
	serialDB := newPartitionedDB(t, 1, rows)
	partDB := newPartitionedDB(t, 4, rows)
	want, _ := runJoin(t, serialDB, 1, catalog.Interpret)
	for _, dop := range []int{1, 2, 4} {
		got, recs := runJoin(t, partDB, dop, catalog.Interpret)
		if !reflect.DeepEqual(sortedCopy(rowStrings(got)), sortedCopy(rowStrings(want))) {
			t.Fatalf("dop=%d: join multiset differs from serial", dop)
		}
		var kinds []ou.Kind
		for _, r := range recs {
			kinds = append(kinds, r.Kind)
		}
		wantKinds := []ou.Kind{ou.PartitionProbe, ou.PartitionProbe, ou.PartitionProbe,
			ou.PartitionProbe, ou.ExchangeMerge}
		if !reflect.DeepEqual(kinds, wantKinds) {
			t.Fatalf("dop=%d: OU stream %v, want %v", dop, kinds, wantKinds)
		}
		again, againRecs := runJoin(t, partDB, dop, catalog.Interpret)
		if !reflect.DeepEqual(rowStrings(again), rowStrings(got)) || !reflect.DeepEqual(againRecs, recs) {
			t.Fatalf("dop=%d: partition-wise join not reproducible", dop)
		}
	}
}

// TestParallelScanElapsedReflectsCriticalPath: the session thread absorbs
// only the slowest chain, so the whole-operator elapsed time must shrink
// when DOP grows (simulated wall clock, not host wall clock).
func TestParallelScanElapsedReflectsCriticalPath(t *testing.T) {
	const rows = 4000
	db := newPartitionedDB(t, 8, rows)
	elapsed := map[int]float64{}
	for _, dop := range []int{1, 4} {
		ctx := exec.NewCtx(db, hw.DefaultCPU())
		ctx.DOP = dop
		start := ctx.Thread().Counters()
		if _, err := exec.Execute(ctx, &plan.SeqScanNode{Table: "part_items"}); err != nil {
			t.Fatal(err)
		}
		elapsed[dop] = ctx.Thread().Since(start).ElapsedUS
	}
	if elapsed[4] >= elapsed[1] {
		t.Fatalf("dop=4 elapsed %.1fus not below dop=1 %.1fus: critical-path absorption broken",
			elapsed[4], elapsed[1])
	}
	if elapsed[4] < elapsed[1]/8 {
		t.Fatalf("dop=4 elapsed %.1fus implausibly below dop=1 %.1fus", elapsed[4], elapsed[1])
	}
}
