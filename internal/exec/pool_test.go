package exec

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/hw"
	"mb2/internal/plan"
)

// consumedShapes is one plan for each parent that consumes a batch inside
// exec — an aggregation and a top-n sort on feed, a hash join's build side
// (and its fed probe) and an index join's outer — over the rows of items
// with id < k, and the builds that draw from the build scratch pool nested
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
