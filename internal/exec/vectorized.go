package exec

import (
	"fmt"
	"math"

	"mb2/internal/exec/vec"
	"mb2/internal/ou"
	"mb2/internal/plan"
	"mb2/internal/storage"
)

// The VecPass driver: the third execution mode (catalog.Vectorize).
//
// plan.ChooseDriver hands VecPass the scan chains rooted at an unpartitioned
// sequential scan: up to vec.BatchRows tuples load into a column-major
// vec.Batch, the chain's stages run as selection-vector kernels, and only
// the surviving lanes materialize — into the pass's sink, which is a Batch
// or a breaker fed by the pass: hash-join probes look each lane up in the
// join's pooled keyTable (hashJoin), aggregation and sort builds fold and
// buffer the lanes as they come. Everything that is not a chain (index
// scans, aggregate and sort brackets, DML, output) still pays interpreter
// charges — which is exactly what the mode's OU decomposition tells the
// planner, since only VEC_* records carry vectorized cost profiles.
//
// The bracket discipline is RowPass's: all real work happens inside the
// VEC_SCAN source bracket, and the per-stage VEC_FILTER brackets are billed
// afterwards from counts collected during the pass.

// Per-row/per-op kernel cost constants. Compare: interpreted scans pay
// 6*interpretFactor = 16.8 per row and compiled scans pay 6; the
// vectorized kernel pays vecScanCostPerRow plus a fixed per-batch overhead,
// so it wins on large inputs and loses on tiny ones — a trade-off the
// VEC_* models learn from the batch_rows feature rather than having it
// hardcoded in the planner.
const (
	vecScanCostPerRow  = 2.0
	vecFilterCostPerOp = 0.6
	vecProbeCostPerRow = 4.0
	vecBatchOverhead   = 32.0
)

// vecBatches is the modeled batch count for n rows: the per-batch overhead
// multiplier. It is a formula over the row count (not the observed chunk
// count) so charges stay a pure function of the features.
func vecBatches(rows float64) float64 {
	if rows <= 0 {
		return 1
	}
	return math.Ceil(rows / vec.BatchRows)
}

// note records a chunk's live lanes entering the stage. Widths sample one
// live lane per chunk — enough for the SeqRead charge billed afterwards,
// with no per-row measurement on the hot path.
func (st *chainStage) note(b *vec.Batch) {
	st.inRows += b.Live()
	st.chunks++
	st.wSum += b.LaneBytes(b.Sel()[0])
}

// emitVecFilter bills one filter or projection stage over inRows lanes as a
// VEC_FILTER OU.
func emitVecFilter(ctx *Ctx, inRows, width, opsPerRow float64) {
	start := ctx.Tracker.Start()
	ops := inRows * opsPerRow
	ctx.Thread().SeqRead(inRows, width)
	ctx.vecCompute(ops*vecFilterCostPerOp + vecBatches(inRows)*vecBatchOverhead)
	ctx.Tracker.Stop(ou.VecFilter, ou.VecFilterFeatures(inRows, ops, vec.BatchRows), start)
}

// runVecPass drives one vectorized pass over an unpartitioned sequential
// scan, feeding every surviving row to sink, then bills the VEC_SCAN and
// per-stage VEC_FILTER brackets. The source's column projection is a free
// columnar view change. When the chain has no projection (keepRows),
// emitted tuples are the storage layer's own (bit-identical to the
// Materialize driver's, zero copies); otherwise survivors materialize from
// the batch into arena storage.
func runVecPass(ctx *Ctx, src *plan.SeqScanNode, stages []chainStage, keepRows bool, sink rowSink) error {
	tbl := ctx.DB.Table(src.Table)
	if tbl == nil {
		return fmt.Errorf("exec: table %q does not exist", src.Table)
	}
	id, ts := ctx.snapshot()
	b := getVecBatch()
	buf := getScanBuf(vec.BatchRows) // a chunk is one batch

	start := ctx.Tracker.Start()
	scanned := 0
	var err error
	tbl.ScanBatch(ctx.Thread(), id, ts, buf, func(rows []storage.ScanRow) bool {
		if err = ctx.interrupted(); err != nil {
			return false
		}
		scanned += len(rows)
		ctx.VecBatches++
		b.Load(rows)
		for i := range stages {
			if b.Live() == 0 {
				break
			}
			st := &stages[i]
			switch {
			case st.cols != nil:
				b.ProjectCols(st.cols)
			case st.pred != nil:
				st.note(b)
				b.Filter(st.pred)
			default:
				st.note(b)
				b.ProjectExprs(st.exprs)
			}
		}
		if keepRows {
			// No projection anywhere in the chain: lanes still map to the
			// loaded chunk, so survivors are the storage rows themselves.
			for _, lane := range b.Sel() {
				sink.push(rows[lane].Row, rows[lane].Data)
			}
		} else {
			ncols := b.NumCols()
			for _, lane := range b.Sel() {
				t := ctx.arena.alloc(ncols)
				for c := 0; c < ncols; c++ {
					t[c] = b.Value(c, lane)
				}
				sink.push(0, t)
			}
		}
		return true
	})
	putScanBuf(buf)
	putVecBatch(b)
	if err != nil {
		return err // an aborted pass bills nothing, like seqSource's
	}

	sc := float64(scanned)
	ctx.vecCompute(sc*vecScanCostPerRow + vecBatches(sc)*vecBatchOverhead)
	width := float64(tbl.Meta.Schema.TupleBytes())
	cols := float64(tbl.Meta.Schema.NumColumns())
	feats := ou.VecScanFeatures(sc, cols, width, vec.BatchRows)
	ctx.Tracker.Stop(ou.VecScan, feats, start)

	for i := range stages {
		st := &stages[i]
		if st.cols != nil {
			continue
		}
		w := 0.0
		if st.chunks > 0 {
			w = float64(st.wSum) / float64(st.chunks)
		}
		emitVecFilter(ctx, float64(st.inRows), w, st.opsPerRow())
	}
	return nil
}
