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
// partition-wise hash joins (the serial join's keyTable and charge helpers,
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

// heap is the nil arena: every tuple it hands out is its own allocation.
// The partition workers carve from it, because they run on goroutines of
// their own and a Ctx's arena is single-worker.
var heap *valueArena

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
// partition order on the session thread, as the EXCHANGE_MERGE OU. The bill
// is a sequential write of every row; exchangeScan's real merge moves only
// tuple headers, in place, and partitionJoin's copies them once — a
// sim-to-real gap the trained models keep until labels are measured.
func emitExchangeMerge(ctx *Ctx, total, width float64, parts, dop int) {
	start := ctx.Tracker.Start()
	ctx.Thread().SeqWrite(total, width)
	ctx.compute(total * 2)
	mergeFeats := ou.ExchangeMergeFeatures(total, width, float64(parts), float64(dop), ctx.compiled())
	ctx.Tracker.Stop(ou.ExchangeMerge, mergeFeats, start)
}

// exchangeScan is the scan source over a partitioned table: every partition
// scans on its worker chain (one PARALLEL_SCAN each) and the exchange merge
// concatenates the stripes into b, with row identities when ids is set.
// Like the serial sources it bills, but does not run, the source's own
// column projection.
//
// The rows materialize once. b is sized for the most rows every partition
// can deliver (the latch-consistent counts of storage.ScanPartitions), each
// worker appends into its own capacity-bounded window of that one array, and
// the merge compacts the stripes leftward in partition order: a stripe never
// outgrows its window, so a destination never passes its source. The stale
// headers the compaction leaves past the merged length are cleared when the
// array is recycled. A stripe appends, never pushes: it must not grow
// through the recycled set, which would recycle its window of b.
func exchangeScan(ctx *Ctx, n *plan.SeqScanNode, b *Batch, ids bool) error {
	tbl := ctx.DB.Table(n.Table)
	if tbl == nil {
		return fmt.Errorf("exec: table %q does not exist", n.Table)
	}
	id, ts := ctx.snapshot()
	width := float64(tbl.Meta.Schema.TupleBytes())
	cols := float64(tbl.Meta.Schema.NumColumns())
	var stripes []Batch
	var dop int
	tbl.ScanPartitions(func(counts []int, scan storage.PartitionScan) {
		parts := len(counts)
		off := make([]int, parts+1)
		for p, c := range counts {
			off[p+1] = off[p] + c
		}
		b.reserve(off[parts], ids)
		stripes = make([]Batch, parts)
		for p := range stripes {
			stripes[p].Rows = b.Rows[off[p]:off[p]:off[p+1]]
			if ids {
				stripes[p].RowIDs = b.RowIDs[off[p]:off[p]:off[p+1]]
			}
		}
		dop = fanOut(ctx, parts, ou.ParallelScan, func(th *hw.Thread, p, dop int) []float64 {
			stripe := &stripes[p]
			buf := getScanBuf(scanBatchSize)
			scan(th, p, id, ts, buf, func(chunk []storage.ScanRow) bool {
				for i := range chunk {
					stripe.Rows = append(stripe.Rows, chunk[i].Data)
					if ids {
						stripe.RowIDs = append(stripe.RowIDs, chunk[i].Row)
					}
				}
				return true
			})
			putScanBuf(buf)
			scanned := stripe.NumRows()
			ctx.computeOn(th, scanned*6)
			if n.Filter == nil && n.Project != nil {
				ctx.computeOn(th, scanned*float64(len(n.Project))*2)
			}
			return ou.ParallelScanFeatures(scanned, cols, width, float64(parts), float64(dop), ctx.compiled())
		})
	})

	total := 0
	for p := range stripes {
		s := &stripes[p]
		copy(b.Rows[total:cap(b.Rows)], s.Rows)
		if ids {
			copy(b.RowIDs[total:cap(b.RowIDs)], s.RowIDs)
		}
		total += len(s.Rows)
	}
	b.Rows = b.Rows[:total]
	if ids {
		b.RowIDs = b.RowIDs[:total]
	}
	emitExchangeMerge(ctx, float64(total), width, len(stripes), dop)
	return nil
}

// partitionJoin runs a hash join that plan.ChooseDriver found partition-wise
// (two bare scans co-partitioned on the join keys): every partition builds a
// worker-local keyTable over its stripe of the build side and probes it with
// the co-located stripe of the probe side, billing its worker thread through
// the serial join's two charge helpers — one PARTITION_PROBE OU invocation
// per partition (build plus probe of that partition), fanned over the worker
// chains.
//
// Both sides are read under one ScanPartitions hold per table (scanBoth), so
// no Repartition moves a row between the counts and the scans. One that
// landed after plan.ChooseDriver can still leave the sides with different
// partition counts; their stripes then no longer co-locate equal keys, and
// the join runs as a single job over every partition of each side.
func partitionJoin(ctx *Ctx, n *plan.HashJoinNode) (*Batch, error) {
	left := ctx.DB.Table(n.Left.(*plan.SeqScanNode).Table)
	right := ctx.DB.Table(n.Right.(*plan.SeqScanNode).Table)
	id, ts := ctx.snapshot()
	leftW := float64(left.Meta.Schema.TupleBytes())
	rightW := float64(right.Meta.Schema.TupleBytes())
	leftCols := float64(left.Meta.Schema.NumColumns())
	rightCols := float64(right.Meta.Schema.NumColumns())
	entryBytes := 8.0*float64(len(n.LeftKeys)) + 8 + 16
	var partOut []Batch
	var dop int

	scanBoth(left, right, func(lc []int, lscan storage.PartitionScan, rc []int, rscan storage.PartitionScan) {
		jobs := len(lc)
		if len(rc) != jobs {
			jobs = 1
		}
		// stripe scans job j's share of one side: partition j, or every
		// partition when the sides are not co-partitioned.
		stripe := func(th *hw.Thread, scan storage.PartitionScan, counts []int, j int, fn func([]storage.ScanRow) bool) {
			if jobs == len(counts) {
				scan(th, j, id, ts, nil, fn)
				return
			}
			for p := range counts {
				scan(th, p, id, ts, nil, fn)
			}
		}
		partOut = make([]Batch, jobs)
		dop = fanOut(ctx, jobs, ou.PartitionProbe, func(th *hw.Thread, j, dop int) []float64 {
			// Build over this partition's stripe of the build side. The row
			// array and the table are pooled and go back once the probe is
			// done: joined tuples copy their build half, and the table keeps
			// key bytes and row numbers, no tuple.
			capacity := 0
			if jobs == len(lc) {
				capacity = lc[j]
			}
			var build Batch
			build.reserve(capacity, false)
			stripe(th, lscan, lc, j, func(rows []storage.ScanRow) bool {
				for i := range rows {
					build.push(0, rows[i].Data)
				}
				return true
			})
			buildRows := len(build.Rows)
			htBytes := float64(buildRows) * entryBytes
			s := getBuildScratch()
			defer putBuildScratch(s)
			jt := &s.kt
			s.keyBuf = jt.build(build.Rows, n.LeftKeys, s.keyBuf)
			ctx.chargeJoinBuild(th, buildRows, htBytes)

			// Probe with the co-located stripe of the probe side, into a
			// pooled array the merge copies out of and recycles.
			out := &partOut[j]
			probed := 0.0
			stripe(th, rscan, rc, j, func(rows []storage.ScanRow) bool {
				for i := range rows {
					r := rows[i].Data
					probed++
					s.keyBuf = index.AppendKeyFromTuple(s.keyBuf[:0], r, n.RightKeys)
					for row := jt.first(s.keyBuf); row >= 0; row = jt.next[row] {
						out.push(0, heap.join(build.Rows[row], r))
					}
				}
				return true
			})
			build.recycle()
			outRows := out.NumRows()
			ctx.chargeJoinProbe(th, probed, htBytes, outRows, leftW+rightW)
			th.Free(htBytes)
			// One invocation covers the whole partition pair: the feature's
			// tuple count is the total work volume (build + probe + emitted
			// matches), its cardinality the partition's distinct build keys.
			return ou.PartitionProbeFeatures(
				float64(buildRows)+probed+outRows,
				leftCols+rightCols, leftW+rightW,
				float64(len(jt.entries)), entryBytes,
				float64(dop), ctx.compiled())
		})
	})

	total := 0
	for p := range partOut {
		total += len(partOut[p].Rows)
	}
	out := ctx.batch()
	out.reserve(total, false)
	for p := range partOut {
		out.Rows = append(out.Rows, partOut[p].Rows...)
		partOut[p].recycle()
	}
	emitExchangeMerge(ctx, float64(total), leftW+rightW, len(partOut), dop)
	return out, nil
}

// scanBoth runs run under one ScanPartitions hold on each of a and b, taken
// in table-name order: two joins taking their holds in opposite orders would
// deadlock once a Repartition waits on each table. A self-join takes a
// single hold — a second read hold on one table queues behind a waiting
// Repartition, which waits for the first.
func scanBoth(a, b *storage.Table, run func(ac []int, as storage.PartitionScan, bc []int, bs storage.PartitionScan)) {
	if a == b {
		a.ScanPartitions(func(c []int, s storage.PartitionScan) { run(c, s, c, s) })
		return
	}
	if b.Meta.Name < a.Meta.Name {
		scanBoth(b, a, func(bc []int, bs storage.PartitionScan, ac []int, as storage.PartitionScan) { run(ac, as, bc, bs) })
		return
	}
	a.ScanPartitions(func(ac []int, as storage.PartitionScan) {
		b.ScanPartitions(func(bc []int, bs storage.PartitionScan) { run(ac, as, bc, bs) })
	})
}
