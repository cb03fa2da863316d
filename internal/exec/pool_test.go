package exec

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"time"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/hw"
	"mb2/internal/plan"
)

// consumedShapes is one plan for each parent that consumes a batch inside
// exec — an aggregation and a top-n sort on feed, a hash join's build side
// (and its fed probe) and an index join's outer — over the rows of items
// with id < k, and builds that draw their scratch from the recycled set nested
// in one another: an aggregation over a hash join, and a hash join on a hash
// join's probe side. Every result depends on every consumed row.
func consumedShapes(k int) []plan.Node {
	scan := func(k int) plan.Node {
		return &plan.SeqScanNode{Table: "items", Filter: plan.Cmp{Op: plan.LT, L: plan.Col(0), R: plan.IntConst(int64(k))}}
	}
	join := func(left, right plan.Node) plan.Node {
		return &plan.HashJoinNode{Left: left, Right: right, LeftKeys: []int{0}, RightKeys: []int{0}}
	}
	sums := []plan.AggSpec{{Fn: plan.Count, Arg: plan.Col(0)}, {Fn: plan.Sum, Arg: plan.Col(2)}}
	return []plan.Node{
		&plan.AggNode{Child: scan(k), GroupBy: []int{1}, Aggs: sums},
		&plan.SortNode{Child: scan(k), Keys: []plan.SortKey{{Col: 2, Desc: true}}, Limit: 10},
		join(scan(k), scan(k/2)),
		&plan.IndexJoinNode{Outer: scan(k / 3), Table: "items", Index: "items_id", OuterKeys: []int{0}},
		&plan.AggNode{Child: join(scan(k), scan(k/2)), GroupBy: []int{5, 3}, Aggs: sums},
		join(scan(k/2), join(scan(k), scan(k/4))),
	}
}

// TestConsumedRowArraysDoNotAlias runs every consumed-batch shape from
// several sessions at once — on an unpartitioned table and through the
// Exchange over four partitions at DOP 2, interpreted and compiled — and
// compares each result with the same statement run alone. A row array the
// pool handed out twice, or recycled while a parent still read it, would
// have one session's rows overwrite another's: a wrong result here, and a
// report under -race.
func TestConsumedRowArraysDoNotAlias(t *testing.T) {
	const rows, groups, sessions = 3000, 10, 2
	plain, parted := newTestDB(t, rows, groups), newTestDB(t, rows, groups)
	knobs := parted.Knobs()
	knobs.PartitionCount = 4
	parted.SetKnobs(knobs)
	for _, db := range []*engine.DB{plain, parted} {
		createIdx(t, db, "items_id", []string{"id"})
	}
	type config struct {
		name string
		db   *engine.DB
		mode catalog.ExecutionMode
		dop  int
	}
	var configs []config
	for _, mode := range []catalog.ExecutionMode{catalog.Interpret, catalog.Compile} {
		configs = append(configs,
			config{"unpartitioned/" + mode.String(), plain, mode, 1},
			config{"part4-dop2/" + mode.String(), parted, mode, 2})
	}
	ks := []int{17, 300, 1100, rows}
	newCtx := func(c config) *Ctx {
		ctx := NewCtx(c.db, hw.DefaultCPU())
		ctx.Mode, ctx.DOP = c.mode, c.dop
		return ctx
	}
	run := func(ctx *Ctx, q plan.Node) (_ []string, err error) {
		// A row cleared under a reader panics it: a wrong result too.
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		b, err := Execute(ctx, q)
		if err != nil {
			return nil, err
		}
		return tupleStrings(b.Rows), nil
	}

	// want[c][i][j] is shape j at ks[i] on configuration c, run alone.
	want := make([][][][]string, len(configs))
	for c, cfg := range configs {
		ctx := newCtx(cfg)
		for _, k := range ks {
			var res [][]string
			for _, q := range consumedShapes(k) {
				got, err := run(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				res = append(res, got)
			}
			want[c] = append(want[c], res)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(configs)*sessions)
	for c, cfg := range configs {
		for s := 0; s < sessions; s++ {
			wg.Add(1)
			go func(c, s int) {
				defer wg.Done()
				ctx := newCtx(cfg)
				for round := 0; round < 3; round++ {
					for i := range ks {
						i := (i + s) % len(ks) // sessions interleave sizes
						for j, q := range consumedShapes(ks[i]) {
							got, err := run(ctx, q)
							if err == nil && !slices.Equal(got, want[c][i][j]) {
								err = fmt.Errorf("%s session %d: shape %d at k=%d returned %d rows differing from the serial run",
									cfg.name, s, j, ks[i], len(got))
							}
							if err != nil {
								errs <- err
								return
							}
						}
					}
				}
			}(c, s)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestStatementAllocationsDoNotDependOnTheP hands an unpartitioned Ctx and a
// Ctx over four partitions at DOP 2 between two goroutines on every
// statement, on at least two Ps with the collector off. After warm-up, each
// cycle of a scan, an aggregation, a top-n sort and a hash join on both
// allocates the same bytes: a buffer one goroutine gives back on one P is
// the one the other draws on the next.
func TestStatementAllocationsDoNotDependOnTheP(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	const rows, groups = 3000, 10
	plain, parted := newTestDB(t, rows, groups), newTestDB(t, rows, groups)
	knobs := parted.Knobs()
	knobs.PartitionCount = 4
	parted.SetKnobs(knobs)
	type statement struct {
		ctx *Ctx
		q   plan.Node
	}
	var cycle []statement
	for _, c := range []struct {
		db  *engine.DB
		dop int
	}{{plain, 1}, {parted, 2}} {
		ctx := NewCtx(c.db, hw.DefaultCPU())
		ctx.DOP = c.dop
		scan := &plan.SeqScanNode{Table: "items", Filter: plan.Cmp{Op: plan.LT, L: plan.Col(0), R: plan.IntConst(rows / 2)}}
		for _, q := range append([]plan.Node{scan}, consumedShapes(rows)[:3]...) {
			cycle = append(cycle, statement{ctx, q})
		}
	}

	// Each goroutine runs the statements it is handed; the next one goes to
	// the other.
	var work [2]chan int
	done := make(chan error)
	for g := range work {
		work[g] = make(chan int)
		go func() {
			for i := range work[g] {
				_, err := cycle[i].ctx.Statement(cycle[i].q)
				done <- err
			}
		}()
	}
	defer func() {
		for _, c := range work {
			close(c)
		}
	}()
	step := 0
	runCycle := func() {
		for i := range cycle {
			work[step%2] <- i
			step++
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
	}

	settleRuntime()
	for range 20 {
		runCycle()
	}
	bytes := make([]uint64, 0, 10)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	for range 10 {
		before := ms.TotalAlloc
		runCycle()
		runtime.ReadMemStats(&ms)
		bytes = append(bytes, ms.TotalAlloc-before)
	}
	t.Logf("bytes per cycle: %v", bytes)
	for _, b := range bytes {
		if b != bytes[0] {
			t.Fatalf("bytes per cycle differ: %v", bytes)
		}
	}
}

// settleRuntime grows the per-P state a draw may touch until nothing a test
// runs next makes a goroutine, a sudog (a blocked goroutine's wait record),
// an OS thread, room in a P's timer heap or a P's shared list in the set's
// anchor. The runtime makes one when the P that needs it finds its own list
// and the global one empty, and which P runs what — the runtime's
// background goroutines included — is the scheduler's choice; and a lock
// whose goroutine moves to another P between anchor's Get and Put finds that
// P's private slot taken. Goroutines that sleep, each Put the set twice,
// block together and are released leave more of each on the global lists
// than the Ps' own lists hold, and every P's timer heap and anchor list
// grown; a few of them lock their thread, so the rest need threads of their
// own. A collection empties the global sudog list and the anchor: call it
// with the collector off.
func settleRuntime() {
	set := lockSet()
	setMu.Unlock()
	var blocked, exited sync.WaitGroup
	release := make(chan struct{})
	for i := range 512 {
		blocked.Add(1)
		exited.Add(1)
		go func() {
			defer exited.Done()
			if i < 8 {
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
			}
			time.Sleep(time.Millisecond)
			anchor.Put(set)
			anchor.Put(set)
			blocked.Done()
			<-release
		}()
	}
	blocked.Wait()
	time.Sleep(10 * time.Millisecond) // every goroutine reaches its receive
	close(release)
	exited.Wait()
}

// TestRecycledSetLivesAsAPoolWould: the set survives one collection, so an
// array given back before it is the one the next draw returns, and the
// second collection with no draw in between frees the set.
func TestRecycledSetLivesAsAPoolWould(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	runtime.GC()
	buf := getScanBuf(scanBatchSize)
	first := &buf[:1][0]
	putScanBuf(buf)
	runtime.GC()
	// Under the race detector sync.Pool drops a quarter of its Puts, so the
	// anchor may have lost the set to that one collection.
	buf = getScanBuf(scanBatchSize)
	if !raceEnabled && &buf[:1][0] != first {
		t.Fatal("a draw after one collection returned a new array")
	}
	putScanBuf(buf)
	runtime.GC()
	runtime.GC()
	if recycledSet.Value() != nil {
		t.Fatal("the set outlived two collections with no draw")
	}
}

// TestHeldSetOutlivesCollections: while a Hold is out the set survives any
// number of collections with no draw, and once every hold is released it
// lives as a pool's contents would again.
func TestHeldSetOutlivesCollections(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	runtime.GC()
	release := Hold()
	inner := Hold()
	buf := getScanBuf(scanBatchSize)
	first := &buf[:1][0]
	putScanBuf(buf)
	inner()
	for range 4 {
		runtime.GC()
	}
	buf = getScanBuf(scanBatchSize)
	if &buf[:1][0] != first {
		t.Fatal("a draw after four collections under a hold returned a new array")
	}
	putScanBuf(buf)
	release()
	runtime.GC()
	runtime.GC()
	if recycledSet.Value() != nil {
		t.Fatal("the set outlived two collections after its last hold was released")
	}
}
