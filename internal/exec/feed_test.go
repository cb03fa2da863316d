package exec

// Tests of the breaker feed: cancellation inside a fused fragment, and what a
// breaker allocates as its input grows.

import (
	"errors"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/hw"
	"mb2/internal/plan"
	"mb2/internal/storage"
)

// filteredCount is GROUP BY grp over the rows of items with id < keep.
func filteredCount(keep int) *plan.AggNode {
	return &plan.AggNode{
		Child: &plan.SeqScanNode{Table: "items",
			Filter: plan.Cmp{Op: plan.LT, L: plan.Col(0), R: plan.IntConst(int64(keep))}},
		GroupBy: []int{1},
		Aggs:    []plan.AggSpec{{Fn: plan.Count, Arg: plan.Col(0)}, {Fn: plan.Sum, Arg: plan.Col(2)}},
	}
}

// TestInterruptInsideFusedFragment: a breaker fused into its chain has no
// operator boundary, so the scan's chunks are the cancellation points. A hook
// that fails on its third poll (node entry, first chunk, second chunk) stops
// the pass after one chunk: the statement returns the hook's error, the sink
// saw one chunk of the table and the aborted fragment left no OU record.
func TestInterruptInsideFusedFragment(t *testing.T) {
	const rows = 5000
	db := newTestDB(t, rows, 10)
	stop := errors.New("stop")
	for _, mode := range []catalog.ExecutionMode{catalog.Interpret, catalog.Compile, catalog.Vectorize} {
		t.Run(mode.String(), func(t *testing.T) {
			ctx, col := testCtx(db)
			ctx.Mode = mode
			polls, failAt := 0, 3
			ctx.Interrupt = func() error {
				if polls++; polls == failAt {
					return stop
				}
				return nil
			}

			fed := 0
			err := feed(ctx, filteredCount(rows).Child, nil, func(storage.RowID, storage.Tuple) { fed++ })
			if !errors.Is(err, stop) {
				t.Fatalf("feed returned %v, want the hook's error", err)
			}
			// A streaming driver delivered the first chunk; Materialize delivers
			// nothing before its source has finished.
			if fed >= rows || (fed == 0) != (mode == catalog.Interpret) {
				t.Fatalf("sink saw %d of %d rows", fed, rows)
			}
			if recs := col.Drain(); len(recs) != 0 {
				t.Fatalf("aborted scan emitted %v", kindsOf(recs))
			}

			// The same kill through a whole statement: entry polls of the
			// aggregation and of its child, then the chunks.
			polls, failAt = 0, 4
			if _, err := Execute(ctx, filteredCount(rows)); !errors.Is(err, stop) {
				t.Fatalf("statement returned %v, want the hook's error", err)
			}
			if recs := col.Drain(); len(recs) != 0 {
				t.Fatalf("aborted statement emitted %v", kindsOf(recs))
			}

			// Without a failing hook the same context completes the statement.
			ctx.Interrupt = func() error { return nil }
			if b, err := Execute(ctx, filteredCount(rows)); err != nil || len(b.Rows) != 10 {
				t.Fatalf("uninterrupted statement: %v, %d groups", err, len(b.Rows))
			}
		})
	}
}

// filteredChainCount is filteredCount behind a RowPass chain of three
// filter stages — the scan's own and two wrapper filters — each of which
// records the widths of the rows entering it.
func filteredChainCount(keep int) *plan.AggNode {
	agg := filteredCount(keep)
	agg.Child = &plan.FilterNode{
		Pred: plan.Cmp{Op: plan.GE, L: plan.Col(1), R: plan.IntConst(0)},
		Child: &plan.FilterNode{
			Pred:  plan.Cmp{Op: plan.LT, L: plan.Col(0), R: plan.IntConst(int64(keep))},
			Child: &plan.SeqScanNode{Table: "items", Filter: plan.Cmp{Op: plan.GE, L: plan.Col(0), R: plan.IntConst(0)}},
		},
	}
	return agg
}

// filteredSelfJoin joins the rows of items with id < keep to themselves on id:
// a build side and a probe side that scan the whole table and keep keep rows.
func filteredSelfJoin(keep int) *plan.HashJoinNode {
	side := func() plan.Node {
		return &plan.SeqScanNode{Table: "items",
			Filter: plan.Cmp{Op: plan.LT, L: plan.Col(0), R: plan.IntConst(int64(keep))}}
	}
	return &plan.HashJoinNode{Left: side(), Right: side(), LeftKeys: []int{0}, RightKeys: []int{0}}
}

// coPartitionedJoin joins items, the build side, to probe on id: two bare
// scans, which the planner runs partition-wise when both tables are
// partitioned on id and as a serial hash join otherwise. The build scan
// carries the estimate a planner gives a bare scan, the table's rows: a
// streamed build side is sized from it (one whose estimate falls short
// still grows by append, ROADMAP item 7).
func coPartitionedJoin(rows int) *plan.HashJoinNode {
	build := &plan.SeqScanNode{Table: "items", Rows: plan.Estimates{Rows: float64(rows)}}
	return &plan.HashJoinNode{Left: build, Right: &plan.SeqScanNode{Table: "probe"},
		LeftKeys: []int{0}, RightKeys: []int{0}}
}

// measureRuns runs the plan a few times on a warm context with the collector
// off and returns allocations and bytes per run. The garbage collector is
// off for the measurement, so a recycled buffer, once grown, stays recycled;
// two collections first free the set of what earlier tests left there, and
// the warm-up runs are as many as it takes every buffer the plan then draws
// to have served the largest stage once. Bytes are counted over the runs
// AllocsPerRun counts, on the one P it measures on: its switches of
// GOMAXPROCS may start an OS thread, whose allocations are the runtime's.
func measureRuns(t *testing.T, ctx *Ctx, q plan.Node) (allocs, bytes float64) {
	t.Helper()
	run := func() {
		if _, err := Execute(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.GC()
	for i := 0; i < 4; i++ {
		run()
	}
	const runs = 5
	var before, after runtime.MemStats
	calls := 0
	allocs = testing.AllocsPerRun(runs, func() {
		run()
		switch calls++; calls {
		case 1: // AllocsPerRun's own warm-up call: bytes are counted after it, as allocations are
			runtime.ReadMemStats(&before)
		case runs + 1:
			runtime.ReadMemStats(&after)
		}
	})
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestBatchIsTwoSlices pins Batch at two slice headers, 48 bytes: a third
// word (a bool marking a consumed batch was measured) moves every Batch into
// the 64-byte allocation size class, and a point query allocates one per
// statement — oltp_point read 1.7 % more bytes per statement.
func TestBatchIsTwoSlices(t *testing.T) {
	if got := unsafe.Sizeof(Batch{}); got != 48 {
		t.Fatalf("Batch is %d bytes, want 48", got)
	}
}

// TestAggregationAllocationsDoNotGrowWithInput counts what a filtered
// aggregate over n and 4n rows with ten groups allocates, and what a join of
// two filtered scans that keep the same rows at both sizes allocates. Neither
// allocations nor bytes grow with the input on any driver, and an
// aggregation's do not grow with its groups either: its table, accumulators
// and group columns come from the recycled set, and its output is one
// value slab and one row array. Streamed (RowPass, VecPass), a fold keeps
// nothing per row: a stage's or a breaker's row widths are runs of equal
// width, one run for these fixed-width rows. Materialized — on one
// partition, or through the Exchange over four at DOP 2 — the child batch is
// consumed: its row array, sized for the whole table, comes from the
// recycled set and goes back to it, and nothing is allocated per row: no
// key, no row identity, and the Exchange merges in place instead of copying
// its stripes. The join's build side is consumed the same way on every
// driver. A join of the whole table to a probe table of joined rows builds
// over n and 4n rows — serially on one partition, partition-wise on four —
// and every build array and every join table comes from the recycled set.
func TestAggregationAllocationsDoNotGrowWithInput(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	settleRuntime()
	const n, groups, joined = 4000, 10, 100
	small, large := newTestDB(t, n, groups), newTestDB(t, 4*n, groups)
	partSmall, partLarge := newTestDB(t, n, groups), newTestDB(t, 4*n, groups)
	for _, db := range []*engine.DB{partSmall, partLarge} {
		knobs := db.Knobs()
		knobs.PartitionCount = 4
		db.SetKnobs(knobs)
	}
	for _, db := range []*engine.DB{small, large, partSmall, partLarge} {
		if _, err := db.CreateTable("probe", db.Table("items").Meta.Schema); err != nil {
			t.Fatal(err)
		}
		rows := make([]storage.Tuple, joined)
		for i := range rows {
			rows[i] = storage.Tuple{storage.NewInt(int64(i)), storage.NewInt(0), storage.NewFloat(0), storage.NewString("probe")}
		}
		if err := db.BulkLoad("probe", rows); err != nil {
			t.Fatal(err)
		}
	}
	queries := []struct {
		name         string
		small, large plan.Node
		// A constant bound on allocations per run, and the partitioned scans
		// the plan runs.
		limit float64
		scans int
	}{
		// A constant, whatever the groups: the output's rows are carved
		// from the arena into a pooled row array.
		{"agg", filteredCount(n / 2), filteredCount(2 * n), 12, 1},
		// The same, each chain stage keeping its input's widths as one run.
		{"filter_chain", filteredChainCount(n / 2), filteredChainCount(2 * n), 12, 1},
		// A constant, plus the joined rows where a partition worker joins
		// them: a heap tuple each.
		{"join", filteredSelfJoin(joined), filteredSelfJoin(joined), 20 + joined, 2},
		// The same.
		{"copartitioned_join", coPartitionedJoin(n), coPartitionedJoin(4 * n), 20 + joined, 2},
	}
	for _, c := range []struct {
		name         string
		mode         catalog.ExecutionMode
		small, large *engine.DB
		dop          int
	}{
		{catalog.Interpret.String(), catalog.Interpret, small, large, 1},
		{catalog.Compile.String(), catalog.Compile, small, large, 1},
		{catalog.Vectorize.String(), catalog.Vectorize, small, large, 1},
		{"EXCHANGE", catalog.Interpret, partSmall, partLarge, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, q := range queries {
				t.Run(q.name, func(t *testing.T) {
					sctx, lctx := NewCtx(c.small, hw.DefaultCPU()), NewCtx(c.large, hw.DefaultCPU())
					sctx.Mode, lctx.Mode = c.mode, c.mode
					sctx.DOP, lctx.DOP = c.dop, c.dop
					sa, sb := measureRuns(t, sctx, q.small)
					la, lb := measureRuns(t, lctx, q.large)
					t.Logf("%d rows %.0f allocs %.0f B; %d rows %.0f allocs %.0f B", n, sa, sb, 4*n, la, lb)
					limit := q.limit
					if c.dop > 1 {
						// The fan-out's fixed structures, per partitioned
						// scan: counts and windows, worker chains, their
						// goroutines, a feature vector per partition.
						limit += 32 * float64(q.scans)
					}
					if raceEnabled {
						// The race detector's instrumentation allocates a few
						// objects of its own per run, as many at either size.
						limit += 8
					}
					if la != sa || la > limit {
						t.Errorf("%.0f allocations at %d rows, %.0f at %d, want the same and at most %.0f", sa, n, la, 4*n, limit)
					}
					if lb != sb {
						t.Errorf("%.0f B at %d rows, %.0f B at %d, want the same", sb, n, lb, 4*n)
					}
				})
			}
		})
	}
}
