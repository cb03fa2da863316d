// Package vec implements the columnar batch substrate of the vectorized
// execution mode (catalog.Vectorize): column-major value buffers, selection
// vectors, and filter/project kernels evaluated batch-at-a-time. The
// execution engine (internal/exec) drives it chunk by chunk — load up to
// BatchRows scan rows into a Batch, run the chain's filter and projection
// stages over the selection vector, then materialize the surviving lanes —
// with no intermediate row materialization between stages.
//
// # Selection-vector semantics
//
//   - Load fills every column from a chunk of scan rows and resets the
//     selection vector to the identity [0..n). A lane is an index into the
//     loaded chunk; Sel() lists the live lanes in ascending chunk order.
//   - Filter compacts the selection vector in place: surviving lanes keep
//     their values and relative order, dropped lanes are forgotten. Lane
//     values still index the originally loaded rows, so callers may map a
//     live lane back to its source row (for row-ID preservation) as long
//     as no expression projection has run.
//   - ProjectCols replaces the column set with a subset/reordering. It is
//     free in the columnar representation — no values move — and lane
//     numbering is unchanged.
//   - ProjectExprs computes new columns over the live lanes and rebases
//     the batch: the new columns are dense (one slot per formerly-live
//     lane) and the selection vector resets to the identity over them.
//     After a rebase, lanes no longer map to source rows — which is why
//     the executor only preserves row IDs through projection-free chains
//     (plan.ScanPipeline.HasRowIDs).
//
// Kernels must agree bit-for-bit with row-at-a-time plan.Expr evaluation:
// comparisons over same-kind operands use storage.Value.Compare and
// mixed-kind operands compare as floats, exactly as plan.Cmp.Eval does.
// Fast columnar paths exist for column-versus-constant comparisons and
// and/or compositions; every other expression falls back to assembling a
// scratch row per live lane and calling Eval, so arbitrary expressions
// remain supported with identical results.
//
// # Buffer ownership and reuse
//
//   - A Batch and everything it references (columns, selection vector,
//     masks, the scratch row) is worker-private scratch owned by the
//     executing goroutine. The package keeps no batches: the executor
//     draws its batch from exec's recycled set (exec/pool.go) and gives it
//     back before Execute returns; Load resets whatever a drawn batch held.
//   - Values read out of a Batch (Value, Row) are copies of storage.Value
//     structs; string bytes are shared with the underlying version store,
//     which is immutable, so copies are safe to retain. Callers that
//     materialize output tuples must copy values out (the executor carves
//     them from its value arena) — batch memory is invalid once the batch
//     is given back.
//   - Row returns the batch-owned scratch tuple, overwritten by the next
//     Row call. It exists for per-lane fallback evaluation; never retain
//     or hand it across lanes.
//
// # Determinism guarantees
//
// Batch processing is a pure function of the loaded rows and the stage
// list: lanes are visited in ascending order, compaction is stable, and
// kernels allocate no per-lane state. Repeated executions over the same
// snapshot produce identical selection vectors, identical output order,
// and identical values, which is what lets the vectorized mode share the
// engine's bit-for-bit seeded-replay guarantees (-verify digests) and the
// vectorized ≡ interpreted equivalence tests.
package vec
