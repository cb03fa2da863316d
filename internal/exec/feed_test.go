package exec

// Tests of the breaker feed: cancellation inside a fused fragment, and what a
// streamed aggregation allocates as its input grows.

import (
	"errors"
	"runtime"
	"runtime/debug"
	"testing"

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

type countingObserver struct{ n int }

func (o *countingObserver) ObserveQuery(string, uint64, hw.Metrics) { o.n++ }

// TestInterruptInsideFusedFragment: a breaker fused into its chain has no
// operator boundary, so the scan's chunks are the cancellation points. A hook
// that fails on its third poll (node entry, first chunk, second chunk) stops
// the pass after one chunk: the statement returns the hook's error, the sink
// saw one chunk of the table, the aborted fragment left no OU record and the
// observer never hears of the statement.
func TestInterruptInsideFusedFragment(t *testing.T) {
	const rows = 5000
	db := newTestDB(t, rows, 10)
	stop := errors.New("stop")
	for _, mode := range []catalog.ExecutionMode{catalog.Interpret, catalog.Compile, catalog.Vectorize} {
		t.Run(mode.String(), func(t *testing.T) {
			ctx, col := testCtx(db)
			ctx.Mode = mode
			obs := &countingObserver{}
			ctx.Observer = obs
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
			if _, _, err := ExecuteObserved(ctx, "q", 1, filteredCount(rows)); !errors.Is(err, stop) {
				t.Fatalf("statement returned %v, want the hook's error", err)
			}
			if recs := col.Drain(); len(recs) != 0 {
				t.Fatalf("aborted statement emitted %v", kindsOf(recs))
			}
			if obs.n != 0 {
				t.Fatalf("observer saw %d aborted statements", obs.n)
			}

			// Without a failing hook the same context completes the statement.
			ctx.Interrupt = func() error { return nil }
			if b, _, err := ExecuteObserved(ctx, "q", 1, filteredCount(rows)); err != nil || len(b.Rows) != 10 || obs.n != 1 {
				t.Fatalf("uninterrupted statement: %v, %d groups, %d observations", err, len(b.Rows), obs.n)
			}
		})
	}
}

// measureAgg runs the plan a few times on a warm context with the collector
// off and returns allocations and bytes per run. The garbage collector is
// off for the measurement, so a pooled buffer, once grown, stays in its pool;
// two collections first empty the pools of what earlier tests left there, and
// the warm-up runs are as many as it takes every width buffer the plan then
// draws to have served the largest stage once (sync.Pool hands them out in
// rotation).
func measureAgg(t *testing.T, ctx *Ctx, q plan.Node) (allocs, bytes float64) {
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
	runtime.ReadMemStats(&before)
	allocs = testing.AllocsPerRun(runs, run)
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes one warm-up call of its own.
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
}

// TestAggregationAllocationsDoNotGrowWithInput counts what a filtered
// aggregate over n and 4n rows with ten groups allocates. Streamed (RowPass,
// VecPass) neither allocations nor bytes grow with the input: what a fold
// keeps per row is one int in a pooled width buffer. Materialized — on one
// partition, or through the Exchange over four at DOP 2 — the child batch
// grows (its one row slice, whatever its length) but nothing is allocated
// per row: no key string, no key bytes, no row identity, and the Exchange
// merges in place instead of copying its stripes.
func TestAggregationAllocationsDoNotGrowWithInput(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// AllocsPerRun measures on one P; a sync.Pool forgets its contents when
	// the P count changes, so the warm-up runs are on one P too.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n, groups = 4000, 10
	small, large := newTestDB(t, n, groups), newTestDB(t, 4*n, groups)
	partSmall, partLarge := newTestDB(t, n, groups), newTestDB(t, 4*n, groups)
	for _, db := range []*engine.DB{partSmall, partLarge} {
		knobs := db.Knobs()
		knobs.PartitionCount = 4
		db.SetKnobs(knobs)
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
			sctx, lctx := NewCtx(c.small, hw.DefaultCPU()), NewCtx(c.large, hw.DefaultCPU())
			sctx.Mode, lctx.Mode = c.mode, c.mode
			sctx.DOP, lctx.DOP = c.dop, c.dop
			// Half of each table survives the filter.
			sa, sb := measureAgg(t, sctx, filteredCount(n/2))
			la, lb := measureAgg(t, lctx, filteredCount(2*n))
			t.Logf("%s: %d rows %.0f allocs %.0f B; %d rows %.0f allocs %.0f B", c.name, n, sa, sb, 4*n, la, lb)
			// A constant, plus the group count: state, key, group columns,
			// four accumulators and the output row of each group.
			limit := float64(24 + 8*groups)
			if c.dop > 1 {
				// The fan-out's fixed structures: counts and windows, worker
				// chains, their goroutines, a feature vector per partition.
				limit += 32
			}
			if raceEnabled {
				// A dropped width buffer regrows in a few dozen appends; a key
				// per row would be thousands.
				if la > limit+100 {
					t.Errorf("%.0f allocations per run, want at most %.0f", la, limit+100)
				}
				return
			}
			if la != sa || la > limit {
				t.Errorf("%.0f allocations at %d rows, %.0f at %d, want the same and at most %.0f", sa, n, la, 4*n, limit)
			}
			// Materialized, the child batch grows: one tuple header per row of
			// the whole table, and no row identities.
			grow := 0.0
			if c.mode == catalog.Interpret {
				grow = 3 * n * 24
			}
			// A tenth over for allocation size classes; a key per row would
			// be three quarters over.
			if lb > sb+1.1*grow+4096 {
				t.Errorf("%.0f B at %d rows, %.0f B at %d, want growth of at most %.0f", sb, n, lb, 4*n, grow)
			}
		})
	}
}
