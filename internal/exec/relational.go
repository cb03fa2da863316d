package exec

import (
	"fmt"
	"sort"

	"mb2/internal/index"
	"mb2/internal/ou"
	"mb2/internal/plan"
	"mb2/internal/storage"
)

// Execute runs a plan and returns the materialized result: it enters the
// node (below) and runs the fragment rooted there on the driver
// plan.ChooseDriver picked (pipeline.go). Scan chains, hash joins and the
// builds that consume a chain — aggregation, sort, join probe — are each one
// definition run by whichever driver the mode and the tables' partitioning
// select; every other operator has a single body, run one operator at a time.
// All drivers return bit-identical rows, and Materialize and RowPass emit
// identical OU record streams.
func Execute(ctx *Ctx, node plan.Node) (*Batch, error) {
	drv, chain, err := enter(ctx, node)
	if err != nil {
		return nil, err
	}
	return runOn(ctx, node, drv, &chain, false)
}

// consume is Execute for a parent inside exec that reads the result's rows
// once and then drops the batch (Ctx.drop): a hash join's build side, an
// index join's outer. The result carries no row identities.
func consume(ctx *Ctx, node plan.Node) (*Batch, error) {
	drv, chain, err := enter(ctx, node)
	if err != nil {
		return nil, err
	}
	return runOn(ctx, node, drv, &chain, true)
}

// enter is the operator boundary: the cancellation point where a killed
// session aborts before the next operator starts (see Ctx.Interrupt), the one
// plan.ChooseDriver call a node gets, and the FusedPipelines count.
func enter(ctx *Ctx, node plan.Node) (plan.Driver, plan.ScanPipeline, error) {
	if err := ctx.interrupted(); err != nil {
		return 0, plan.ScanPipeline{}, err
	}
	drv, chain := plan.ChooseDriver(ctx, node)
	if drv == plan.RowPass {
		ctx.FusedPipelines++
	}
	return drv, chain, nil
}

// feed hands every row of node's result to sink, in result order: streamed
// through streamChain when node is a chain on a streaming driver, looped from
// the materialized Batch otherwise. It is how a pipeline breaker consumes its
// input, so each breaker has one body for every driver. A consumer that
// buffers the rows passes expect, called once before the first row with the
// row count (a Batch's) or the optimizer's estimate of it (a stream's). The
// Batch is consumed: its row array comes from the recycled set and goes back
// after the last row, so sink may keep a tuple but never the array. Row
// identities are not fed (the loop passes 0), so none are materialized:
// nothing above a breaker carries them.
func feed(ctx *Ctx, node plan.Node, expect func(rows int), sink func(storage.RowID, storage.Tuple)) error {
	drv, chain, err := enter(ctx, node)
	if err != nil {
		return err
	}
	if expect == nil {
		expect = func(int) {}
	}
	if chain.Source != nil && drv.Streams() {
		expect(capHint(chain.Source.Est().Rows))
		return streamChain(ctx, drv, &chain, sinkFunc(sink))
	}
	b, err := runOn(ctx, node, drv, &chain, true)
	if err != nil {
		return err
	}
	expect(len(b.Rows))
	for _, r := range b.Rows {
		sink(0, r)
	}
	ctx.drop(b)
	return nil
}

// runOn runs the fragment rooted at node on the driver and chain enter
// returned (a chain with a nil Source: node is not one). consumed says
// whether a parent inside exec reads the result once and drops it: a chain
// then materializes no row identities.
func runOn(ctx *Ctx, node plan.Node, drv plan.Driver, chain *plan.ScanPipeline, consumed bool) (*Batch, error) {
	if chain.Source != nil {
		return execChain(ctx, drv, chain, consumed)
	}
	switch n := node.(type) {
	case *plan.HashJoinNode:
		if drv == plan.Exchange {
			return partitionJoin(ctx, n)
		}
		return hashJoin(ctx, n, drv)
	case *plan.IndexJoinNode:
		return execIndexJoin(ctx, n)
	case *plan.AggNode:
		return execAgg(ctx, n)
	case *plan.SortNode:
		return execSort(ctx, n)
	case *plan.ProjectNode:
		return execStage(ctx, n.Child, chainStage{exprs: n.Exprs})
	case *plan.FilterNode:
		return execStage(ctx, n.Child, chainStage{pred: n.Pred})
	case *plan.InsertNode:
		return execInsert(ctx, n)
	case *plan.UpdateNode:
		return execUpdate(ctx, n)
	case *plan.DeleteNode:
		return execDelete(ctx, n)
	case *plan.OutputNode:
		return execOutput(ctx, n)
	default:
		return nil, fmt.Errorf("exec: unsupported plan node %T", node)
	}
}

// execStage runs a filter or projection whose child is not a scan chain.
func execStage(ctx *Ctx, child plan.Node, st chainStage) (*Batch, error) {
	b, err := Execute(ctx, child)
	if err != nil {
		return nil, err
	}
	applyStage(ctx, b, &st)
	return b, nil
}

// execIndexJoin probes the index once per row of its outer, a consumed batch
// dropped as the join returns: joined tuples copy their outer half.
func execIndexJoin(ctx *Ctx, n *plan.IndexJoinNode) (*Batch, error) {
	outer, err := consume(ctx, n.Outer)
	if err != nil {
		return nil, err
	}
	defer ctx.drop(outer)
	tbl := ctx.DB.Table(n.Table)
	idx := ctx.DB.Index(n.Index)
	if tbl == nil || idx == nil {
		return nil, fmt.Errorf("exec: missing table %q or index %q", n.Table, n.Index)
	}
	id, ts := ctx.snapshot()
	loops := outer.NumRows()
	if loops < 1 {
		loops = 1
	}

	start := ctx.Tracker.Start()
	out := ctx.batch()
	out.reserve(capHint(n.Rows.Rows), false)
	// Probe keys encode into the worker scratch buffer and postings collect
	// into a pooled buffer via the copy-free lookup path; matches buffer
	// outside the tree's read lock so version reads never nest inside it.
	ps := getPostingBuf()
	for _, or := range outer.Rows {
		ctx.keyBuf = index.AppendKeyFromTuple(ctx.keyBuf[:0], or, n.OuterKeys)
		ps = ps[:0]
		idx.SearchEQFunc(ctx.Thread(), ctx.keyBuf, loops, func(r storage.RowID) bool {
			ps = append(ps, index.Entry{Key: ctx.keyBuf, Row: r})
			return true
		})
		ctx.readPostings(tbl, idx.Meta.KeyCols, ps, id, ts, func(_ storage.RowID, inner storage.Tuple) {
			out.push(0, ctx.arena.join(or, inner))
		})
		ctx.compute(12)
	}
	putPostingBuf(ps)
	width := float64(tbl.Meta.Schema.TupleBytes())
	feats := ou.ExecFeatures(out.NumRows(), outer.NumCols(), width, float64(idx.NumRows()), 0, loops, ctx.compiled())
	ctx.Tracker.Stop(ou.IdxScan, feats, start)
	return out, nil
}

// execAgg folds each row into its group as feed delivers it, keeping of the
// input only its shape, then replays the build's per-row charges call for
// call inside the AGG_BUILD bracket: records, features and labels are those
// of a build that charged as it went, on every driver. A group is one entry
// of a pooled keyTable — entries in first-seen order, each remembering the
// row that opened it — with its accumulators (the counts, sums, mins and
// maxs of every aggregate) at stride 4·len(Aggs) in a pooled float64 slab
// and its columns copied into a pooled value slab; nothing is allocated per
// group: the output rows are carved from the Ctx's arena.
func execAgg(ctx *Ctx, n *plan.AggNode) (*Batch, error) {
	s := getBuildScratch()
	defer func() {
		clear(s.vals) // group columns may hold strings: the set must not keep them
		s.vals = s.vals[:0]
		putBuildScratch(s)
	}()
	kt := &s.kt
	kt.reset(aggHeads, 0)
	s.acc, s.vals = s.acc[:0], s.vals[:0]
	nAggs, nKeys := len(n.Aggs), len(n.GroupBy)
	stride := 4 * nAggs
	var in shape
	err := feed(ctx, n.Child, nil, func(_ storage.RowID, r storage.Tuple) {
		s.keyBuf = index.AppendKeyFromTuple(s.keyBuf[:0], r, n.GroupBy)
		e, fresh := kt.insert(s.keyBuf)
		if fresh {
			s.acc = append(s.acc, make([]float64, stride)...)
			for _, c := range n.GroupBy {
				s.vals = append(s.vals, r[c])
			}
		}
		in.note(r)
		acc := s.acc[int(e)*stride : int(e+1)*stride]
		counts, sums, mins, maxs := acc[:nAggs], acc[nAggs:2*nAggs], acc[2*nAggs:3*nAggs], acc[3*nAggs:]
		for ai, spec := range n.Aggs {
			var v float64
			if spec.Fn != plan.Count {
				v = spec.Arg.Eval(r).AsFloat()
			}
			if counts[ai] == 0 || v < mins[ai] {
				mins[ai] = v
			}
			if counts[ai] == 0 || v > maxs[ai] {
				maxs[ai] = v
			}
			counts[ai]++
			sums[ai] += v
		}
	})
	if err != nil {
		return nil, err
	}
	entryBytes := 8.0*float64(nKeys) + 24*float64(nAggs) + 16

	// Build: aggregate hash table grows with inserted unique keys (Sec 4.3).
	start := ctx.Tracker.Start()
	grown := 0
	for i := range in.widths.n {
		if grown < len(kt.entries) && int(kt.entries[grown].first) == i {
			grown++
			ctx.Thread().Alloc(entryBytes)
		}
		ctx.Thread().RandRead(1, float64(grown)*entryBytes, 1)
		for _, spec := range n.Aggs {
			ctx.compute(4 + spec.Arg.Ops())
		}
		ctx.compute(8)
	}
	groups := len(kt.entries)
	card := float64(groups)
	buildFeats := ou.ExecFeatures(in.rows(), in.cols(), in.width(), card, entryBytes, 1, ctx.compiled())
	ctx.Tracker.Stop(ou.AggBuild, buildFeats, start)

	// Probe/iterate: produce one output row per group.
	start = ctx.Tracker.Start()
	width := nKeys + nAggs
	out := ctx.batch()
	out.reserve(groups, false)
	for g := range groups {
		row := ctx.arena.alloc(width)
		copy(row, s.vals[g*nKeys:(g+1)*nKeys])
		acc := s.acc[g*stride : (g+1)*stride]
		for ai, spec := range n.Aggs {
			count, sum := acc[ai], acc[nAggs+ai]
			var v storage.Value
			switch spec.Fn {
			case plan.Count:
				v = storage.NewInt(int64(count))
			case plan.Sum:
				v = storage.NewFloat(sum)
			case plan.Min:
				v = storage.NewFloat(acc[2*nAggs+ai])
			case plan.Max:
				v = storage.NewFloat(acc[3*nAggs+ai])
			default: // Avg
				v = storage.NewFloat(sum / count)
			}
			row[nKeys+ai] = v
			ctx.compute(3)
		}
		out.push(0, row)
	}
	ctx.Thread().SeqWrite(card, entryBytes)
	probeFeats := ou.ExecFeatures(card, float64(width), entryBytes, card, entryBytes, 1, ctx.compiled())
	ctx.Tracker.Stop(ou.AggProbe, probeFeats, start)

	ctx.Thread().Free(card * entryBytes)
	return out, nil
}

// aggHeads is the bucket heads an aggregation's table starts from; it
// doubles as the groups arrive.
const aggHeads = 16

// execSort's build appends the rows feed delivers straight into the sort
// buffer. Without a limit the result is the buffer. With one, the first
// Limit rows are copied into a result of their size class and the buffer is
// dropped, so a top-n result does not keep its whole input alive.
func execSort(ctx *Ctx, n *plan.SortNode) (*Batch, error) {
	var in shape
	sb := ctx.batch()
	err := feed(ctx, n.Child, func(rows int) { sb.reserve(rows, false) },
		func(_ storage.RowID, t storage.Tuple) {
			in.note(t)
			sb.push(0, t)
		})
	if err != nil {
		return nil, err
	}
	buf := sb.Rows
	nrows, ncols, width := in.rows(), in.cols(), in.width()

	// Build: fill the sort buffer and sort — O(n log n).
	start := ctx.Tracker.Start()
	ctx.Thread().Alloc(nrows * (width + 8))
	ctx.Thread().SeqWrite(nrows, width)
	comparisons := 0.0
	sort.SliceStable(buf, func(i, j int) bool {
		comparisons++
		for _, k := range n.Keys {
			c := buf[i][k.Col].Compare(buf[j][k.Col])
			if k.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	ctx.compute(comparisons * float64(len(n.Keys)) * 4)
	buildFeats := ou.ExecFeatures(nrows, ncols, width, float64(len(n.Keys)), 0, 1, ctx.compiled())
	ctx.Tracker.Stop(ou.SortBuild, buildFeats, start)

	// Iterate: stream the sorted output (bounded by the limit).
	start = ctx.Tracker.Start()
	out := sb
	if n.Limit > 0 {
		k := min(n.Limit, len(buf))
		out = ctx.batch()
		out.reserve(k, false)
		out.Rows = append(out.Rows, buf[:k]...)
		ctx.drop(sb)
	}
	ctx.Thread().SeqRead(out.NumRows(), width)
	ctx.compute(out.NumRows() * 2)
	iterFeats := ou.ExecFeatures(out.NumRows(), ncols, width, float64(len(n.Keys)), 0, 1, ctx.compiled())
	ctx.Tracker.Stop(ou.SortIter, iterFeats, start)

	return out, nil
}

func execOutput(ctx *Ctx, n *plan.OutputNode) (*Batch, error) {
	child, err := Execute(ctx, n.Child)
	if err != nil {
		return nil, err
	}
	start := ctx.Tracker.Start()
	nrows := child.NumRows()
	width := child.AvgWidth()
	ctx.Thread().SeqRead(nrows, width)
	ctx.compute(nrows * (child.NumCols()*4 + 6)) // wire-format serialization
	ctx.Thread().SeqWrite(nrows, width)          // socket buffer copy
	feats := ou.ExecFeatures(nrows, child.NumCols(), width, 0, 0, 1, ctx.compiled())
	ctx.Tracker.Stop(ou.Output, feats, start)
	return child, nil
}
