package exec

import (
	"fmt"
	"sort"

	"mb2/internal/catalog"
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
	return runOn(ctx, node, drv, chain)
}

// enter is the operator boundary: the cancellation point where a killed
// session aborts before the next operator starts (see Ctx.Interrupt), the one
// plan.ChooseDriver call a node gets, and the FusedPipelines count.
func enter(ctx *Ctx, node plan.Node) (plan.Driver, *plan.ScanPipeline, error) {
	if err := ctx.interrupted(); err != nil {
		return 0, nil, err
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
// row count (a Batch's) or the optimizer's estimate of it (a stream's). Row
// identities are not fed (the loop passes 0): nothing above a breaker carries
// them.
func feed(ctx *Ctx, node plan.Node, expect func(rows int), sink func(storage.RowID, storage.Tuple)) error {
	drv, chain, err := enter(ctx, node)
	if err != nil {
		return err
	}
	if expect == nil {
		expect = func(int) {}
	}
	if chain != nil && drv.Streams() {
		expect(capHint(chain.Source.Est().Rows))
		return streamChain(ctx, drv, chain, sink)
	}
	b, err := runOn(ctx, node, drv, chain)
	if err != nil {
		return err
	}
	expect(len(b.Rows))
	for _, r := range b.Rows {
		sink(0, r)
	}
	return nil
}

// runOn runs the fragment rooted at node on the driver enter returned.
func runOn(ctx *Ctx, node plan.Node, drv plan.Driver, chain *plan.ScanPipeline) (*Batch, error) {
	if chain != nil {
		return execChain(ctx, drv, chain)
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

func execIndexJoin(ctx *Ctx, n *plan.IndexJoinNode) (*Batch, error) {
	outer, err := Execute(ctx, n.Outer)
	if err != nil {
		return nil, err
	}
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
	out := make([]storage.Tuple, 0, capHint(n.Rows.Rows))
	// Probe keys encode into the worker scratch buffer and postings collect
	// into a pooled buffer via the copy-free lookup path; matches buffer
	// outside the tree's read lock so version reads never nest inside it.
	buf := getPostingBuf()
	ps := *buf
	for _, or := range outer.Rows {
		ctx.keyBuf = index.AppendKeyFromTuple(ctx.keyBuf[:0], or, n.OuterKeys)
		ps = ps[:0]
		idx.SearchEQFunc(ctx.Thread(), ctx.keyBuf, loops, func(r storage.RowID) bool {
			ps = append(ps, index.Entry{Key: ctx.keyBuf, Row: r})
			return true
		})
		ctx.readPostings(tbl, idx.Meta.KeyCols, ps, id, ts, func(_ storage.RowID, inner storage.Tuple) {
			out = append(out, ctx.arena.join(or, inner))
		})
		ctx.compute(12)
	}
	*buf = ps
	putPostingBuf(buf)
	width := float64(tbl.Meta.Schema.TupleBytes())
	feats := ou.ExecFeatures(float64(len(out)), outer.NumCols(), width, float64(idx.NumRows()), 0, loops, ctx.compiled())
	ctx.Tracker.Stop(ou.IdxScan, feats, start)
	return &Batch{Rows: out}, nil
}

type aggState struct {
	group  storage.Tuple
	first  int // index of the input row that opened the group
	counts []float64
	sums   []float64
	mins   []float64
	maxs   []float64
	init   bool
}

// execAgg folds each row into its group as feed delivers it, keeping of the
// input only its shape and the index of the row that opened each group, then
// replays the build's per-row charges call for call inside the AGG_BUILD
// bracket: records, features and labels are those of a build that charged as
// it went, on every driver.
func execAgg(ctx *Ctx, n *plan.AggNode) (*Batch, error) {
	in := newShape()
	defer in.release()
	groups := make(map[string]*aggState)
	var order []*aggState // first-seen order
	err := feed(ctx, n.Child, nil, func(_ storage.RowID, r storage.Tuple) {
		ctx.keyBuf = index.AppendKeyFromTuple(ctx.keyBuf[:0], r, n.GroupBy)
		st, ok := groups[string(ctx.keyBuf)]
		if !ok {
			st = &aggState{
				group:  heap.projectCols(r, n.GroupBy),
				first:  len(*in.widths),
				counts: make([]float64, len(n.Aggs)),
				sums:   make([]float64, len(n.Aggs)),
				mins:   make([]float64, len(n.Aggs)),
				maxs:   make([]float64, len(n.Aggs)),
			}
			groups[string(ctx.keyBuf)] = st
			order = append(order, st)
		}
		in.note(r)
		for ai, spec := range n.Aggs {
			var v float64
			if spec.Fn != plan.Count {
				v = valueAsFloat(spec.Arg.Eval(r))
			}
			st.counts[ai]++
			st.sums[ai] += v
			if !st.init || v < st.mins[ai] {
				st.mins[ai] = v
			}
			if !st.init || v > st.maxs[ai] {
				st.maxs[ai] = v
			}
		}
		st.init = true
	})
	if err != nil {
		return nil, err
	}
	entryBytes := 8.0*float64(len(n.GroupBy)) + 24*float64(len(n.Aggs)) + 16

	// Build: aggregate hash table grows with inserted unique keys (Sec 4.3).
	start := ctx.Tracker.Start()
	grown := 0
	for i := range *in.widths {
		if grown < len(order) && order[grown].first == i {
			grown++
			ctx.Thread().Alloc(entryBytes)
		}
		ctx.Thread().RandRead(1, float64(grown)*entryBytes, 1)
		for _, spec := range n.Aggs {
			ctx.compute(4 + spec.Arg.Ops())
		}
		ctx.compute(8)
	}
	card := float64(len(order))
	buildFeats := ou.ExecFeatures(in.rows(), in.cols(), in.width(), card, entryBytes, 1, ctx.compiled())
	ctx.Tracker.Stop(ou.AggBuild, buildFeats, start)

	// Probe/iterate: produce one output row per group.
	start = ctx.Tracker.Start()
	out := make([]storage.Tuple, 0, len(order))
	for _, st := range order {
		row := make(storage.Tuple, 0, len(st.group)+len(n.Aggs))
		row = append(row, st.group...)
		for ai, spec := range n.Aggs {
			switch spec.Fn {
			case plan.Count:
				row = append(row, storage.NewInt(int64(st.counts[ai])))
			case plan.Sum:
				row = append(row, storage.NewFloat(st.sums[ai]))
			case plan.Min:
				row = append(row, storage.NewFloat(st.mins[ai]))
			case plan.Max:
				row = append(row, storage.NewFloat(st.maxs[ai]))
			default: // Avg
				row = append(row, storage.NewFloat(st.sums[ai]/st.counts[ai]))
			}
			ctx.compute(3)
		}
		out = append(out, row)
	}
	ctx.Thread().SeqWrite(card, entryBytes)
	probeFeats := ou.ExecFeatures(card, float64(len(n.GroupBy)+len(n.Aggs)), entryBytes, card, entryBytes, 1, ctx.compiled())
	ctx.Tracker.Stop(ou.AggProbe, probeFeats, start)

	ctx.Thread().Free(card * entryBytes)
	return &Batch{Rows: out}, nil
}

func valueAsFloat(v storage.Value) float64 {
	if v.Kind == catalog.Float64 {
		return v.F
	}
	return float64(v.I)
}

// execSort's build appends the rows feed delivers straight into the sort
// buffer, which the result then owns.
func execSort(ctx *Ctx, n *plan.SortNode) (*Batch, error) {
	in := newShape()
	defer in.release()
	var buf []storage.Tuple
	err := feed(ctx, n.Child, func(rows int) { buf = make([]storage.Tuple, 0, rows) },
		func(_ storage.RowID, r storage.Tuple) {
			in.note(r)
			buf = append(buf, r)
		})
	if err != nil {
		return nil, err
	}
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
	out := buf
	if n.Limit > 0 && n.Limit < len(buf) {
		out = buf[:n.Limit]
	}
	ctx.Thread().SeqRead(float64(len(out)), width)
	ctx.compute(float64(len(out)) * 2)
	iterFeats := ou.ExecFeatures(float64(len(out)), ncols, width, float64(len(n.Keys)), 0, 1, ctx.compiled())
	ctx.Tracker.Stop(ou.SortIter, iterFeats, start)

	return &Batch{Rows: out}, nil
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
