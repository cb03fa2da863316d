package exec

import (
	"fmt"

	"mb2/internal/hw"
	"mb2/internal/index"
	"mb2/internal/ou"
	"mb2/internal/par"
	"mb2/internal/plan"
	"mb2/internal/storage"
)

// Partitioned intra-query parallelism: exchange-style parallel scans and
// partition-wise hash joins (the serial join's joinTable and charge helpers,
// pipeline.go, run per partition on a worker thread). Work fans out over
// min(DOP, partitions) worker chains; partition p always runs on chain
// p % chains, each chain owns a fresh hardware thread, and per-partition OU
// records are emitted after the barrier in partition order — so the record
// stream, the merged result order, and every charge are a pure function of
// (data, partition count, DOP), independent of goroutine scheduling or the
// process's -j setting.
//
// Elapsed-time accounting follows engine.CreateIndex's concurrent-build
// pattern: the session thread absorbs only the critical-path chain (the one
// with the largest derived elapsed time), so a query-level bracket around
// the operator sees the slowest chain's wall clock, not the sum of all
// chains. The exchange merge itself runs on the session thread and is
// recorded as the EXCHANGE_MERGE OU.

// partChains returns the number of worker chains for a partitioned operator.
func partChains(dop, parts int) int {
	if dop < 1 {
		dop = 1
	}
	if dop > parts {
		dop = parts
	}
	return dop
}

// absorbCritical folds the critical-path chain's counters into the session
// thread: the chain with the largest derived elapsed time, ties broken by
// the lowest chain index so the choice is deterministic.
func absorbCritical(ctx *Ctx, chains []*hw.Thread) {
	best, bestElapsed := -1, -1.0
	for i, th := range chains {
		e := th.CPU().Derive(th.Counters()).ElapsedUS
		if e > bestElapsed {
			best, bestElapsed = i, e
		}
	}
	if best >= 0 {
		ctx.Thread().Absorb(chains[best].Counters())
	}
}

// emitPartitionRecords hands the per-partition records collected by worker
// chains to the session collector, in partition order.
func emitPartitionRecords(ctx *Ctx, kind ou.Kind, feats [][]float64, labels []hw.Metrics) {
	col := ctx.Tracker.Collector()
	if col == nil {
		return
	}
	for p := range feats {
		col.Emit(kind, feats[p], labels[p])
	}
}

// fanOut runs work once per partition — partition p on worker chain
// p % dop, each chain a fresh hardware thread — and emits one kind record per
// partition, in partition order, with the features work returned and the
// labels its bracket measured on the chain. It returns the chain count.
func fanOut(ctx *Ctx, parts int, kind ou.Kind, work func(th *hw.Thread, p, dop int) []float64) int {
	dop := partChains(ctx.DOP, parts)
	cpu := ctx.Thread().CPU()
	chains := make([]*hw.Thread, dop)
	feats := make([][]float64, parts)
	labels := make([]hw.Metrics, parts)
	par.Do(dop, dop, func(c int) {
		th := hw.NewThread(cpu)
		chains[c] = th
		for p := c; p < parts; p += dop {
			th.Compute(300) // per-partition tracker bracket
			start := th.Counters()
			feats[p] = work(th, p, dop)
			labels[p] = th.Since(start)
			th.Compute(300)
		}
	})
	absorbCritical(ctx, chains)
	emitPartitionRecords(ctx, kind, feats, labels)
	return dop
}

// emitExchangeMerge bills concatenating the per-partition streams, in
// partition order on the session thread, as the EXCHANGE_MERGE OU.
func emitExchangeMerge(ctx *Ctx, total, width float64, parts, dop int) {
	start := ctx.Tracker.Start()
	ctx.Thread().SeqWrite(total, width)
	ctx.compute(total * 2)
	mergeFeats := ou.ExchangeMergeFeatures(total, width, float64(parts), float64(dop), ctx.compiled())
	ctx.Tracker.Stop(ou.ExchangeMerge, mergeFeats, start)
}

// exchangeScan is the scan source over a partitioned table: every partition
// scans on its worker chain (one PARALLEL_SCAN each) and the exchange merge
// concatenates the stripes into b. Like the serial sources it bills, but
// does not run, the source's own column projection.
func exchangeScan(ctx *Ctx, n *plan.SeqScanNode, b *Batch) error {
	tbl := ctx.DB.Table(n.Table)
	if tbl == nil {
		return fmt.Errorf("exec: table %q does not exist", n.Table)
	}
	id, ts := ctx.snapshot()
	width := float64(tbl.Meta.Schema.TupleBytes())
	cols := float64(tbl.Meta.Schema.NumColumns())
	counts := tbl.PartitionRowCounts()
	parts := len(counts)
	stripes := make([]Batch, parts)

	dop := fanOut(ctx, parts, ou.ParallelScan, func(th *hw.Thread, p, dop int) []float64 {
		stripe := &stripes[p]
		stripe.expect(counts[p])
		tbl.ScanPartition(th, p, id, ts, func(r storage.RowID, t storage.Tuple) bool {
			stripe.push(r, t)
			return true
		})
		scanned := stripe.NumRows()
		ctx.computeOn(th, scanned*6)
		if n.Filter == nil && n.Project != nil {
			ctx.computeOn(th, scanned*float64(len(n.Project))*2)
		}
		return ou.ParallelScanFeatures(scanned, cols, width, float64(parts), float64(dop), ctx.compiled())
	})

	total := 0
	for p := range stripes {
		total += len(stripes[p].Rows)
	}
	b.expect(total)
	for p := range stripes {
		b.Rows = append(b.Rows, stripes[p].Rows...)
		b.RowIDs = append(b.RowIDs, stripes[p].RowIDs...)
	}
	emitExchangeMerge(ctx, float64(total), width, parts, dop)
	return nil
}

// partitionJoin runs a hash join that plan.ChooseDriver found partition-wise
// (two bare scans co-partitioned on the join keys): every partition builds a
// worker-local joinTable over its stripe of the build side and probes it with
// the co-located stripe of the probe side, billing its worker thread through
// the serial join's two charge helpers — one PARTITION_PROBE OU invocation
// per partition (build plus probe of that partition), fanned over the worker
// chains.
func partitionJoin(ctx *Ctx, n *plan.HashJoinNode) (*Batch, error) {
	left := ctx.DB.Table(n.Left.(*plan.SeqScanNode).Table)
	right := ctx.DB.Table(n.Right.(*plan.SeqScanNode).Table)
	counts := left.PartitionRowCounts()
	parts := len(counts)
	id, ts := ctx.snapshot()
	leftW := float64(left.Meta.Schema.TupleBytes())
	rightW := float64(right.Meta.Schema.TupleBytes())
	leftCols := float64(left.Meta.Schema.NumColumns())
	rightCols := float64(right.Meta.Schema.NumColumns())
	entryBytes := 8.0*float64(len(n.LeftKeys)) + 8 + 16
	partOut := make([][]storage.Tuple, parts)

	dop := fanOut(ctx, parts, ou.PartitionProbe, func(th *hw.Thread, p, dop int) []float64 {
		// Build over this partition's stripe of the build side.
		build := make([]storage.Tuple, 0, counts[p])
		left.ScanPartition(th, p, id, ts, func(_ storage.RowID, t storage.Tuple) bool {
			build = append(build, t)
			return true
		})
		htBytes := float64(len(build)) * entryBytes
		var jt joinTable
		keyBuf := jt.build(build, n.LeftKeys, nil)
		ctx.chargeJoinBuild(th, len(build), htBytes)

		// Probe with the co-located stripe of the probe side.
		var out []storage.Tuple
		probed := 0.0
		right.ScanPartition(th, p, id, ts, func(_ storage.RowID, r storage.Tuple) bool {
			probed++
			keyBuf = index.AppendKeyFromTuple(keyBuf[:0], r, n.RightKeys)
			for row := jt.first(keyBuf); row >= 0; row = jt.next[row] {
				out = append(out, heap.join(build[row], r))
			}
			return true
		})
		outRows := float64(len(out))
		ctx.chargeJoinProbe(th, probed, htBytes, outRows, leftW+rightW)
		th.Free(htBytes)
		partOut[p] = out
		// One invocation covers the whole partition pair: the feature's
		// tuple count is the total work volume (build + probe + emitted
		// matches), its cardinality the partition's distinct build keys.
		return ou.PartitionProbeFeatures(
			float64(len(build))+probed+outRows,
			leftCols+rightCols, leftW+rightW,
			float64(len(jt.entries)), entryBytes,
			float64(dop), ctx.compiled())
	})

	total := 0
	for _, rows := range partOut {
		total += len(rows)
	}
	out := make([]storage.Tuple, 0, total)
	for _, rows := range partOut {
		out = append(out, rows...)
	}
	emitExchangeMerge(ctx, float64(total), leftW+rightW, parts, dop)
	return &Batch{Rows: out}, nil
}
