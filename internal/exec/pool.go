package exec

import (
	"math/bits"
	"sync"
	"unsafe"

	"mb2/internal/index"
	"mb2/internal/storage"
)

// Hot-path scratch memory discipline. The drivers draw five kinds of
// buffers:
//
//   - pooled scratch (scan-row buffers, posting buffers): returned to a
//     sync.Pool before Execute returns; never escapes. Row widths are not
//     buffered at all: a stage and a breaker's shape keep them as a
//     run-length widthLog, one inline run for a fixed-width stream.
//   - build scratch (a hash join's or an aggregation's keyTable, key buffer
//     and group slabs): one pool for every build on every driver, returned
//     before the build's operator returns; never escapes.
//   - per-Ctx scratch (the index join's key buffer, the stage list): a Ctx
//     is single-worker by contract, so it is reused with no
//     synchronization.
//   - arena-backed output tuples: projected/joined tuples are carved out of
//     chunked []storage.Value blocks owned by whoever holds the tuple — the
//     returned Batch, or a breaker that kept what it was fed (a sort
//     buffer). Each region is handed out exactly once, so keeping a fed
//     tuple is safe; arena chunks are NOT pooled, because results
//     legitimately outlive the query.
//   - pooled row arrays (a consumed batch's []storage.Tuple): a batch that a
//     parent reads once inside exec and then drops — a chain fed to a
//     breaker, a hash join's build side, a partition-wise join worker's
//     build side, an index join's outer, a top-n sort's buffer — draws its
//     array from a size-classed pool and recycles it, cleared, once the
//     parent has read the last row. Only the array of tuple headers is
//     recycled, never a tuple. Execute's result never draws from the pool.
//
// See DESIGN.md "Execution: source → stages → sink" for the full retention
// contract.

const (
	scanBatchSize  = 256
	arenaChunkVals = 4096
)

// Pools hold pointers to slices so Get/Put stay allocation-free.
var scanBufPool = sync.Pool{
	New: func() any { b := make([]storage.ScanRow, 0, scanBatchSize); return &b },
}

var postingBufPool = sync.Pool{
	New: func() any { b := make([]index.Entry, 0, 256); return &b },
}

// buildScratch is a build's hash table and scratch — a hash join's, a
// partition-wise join worker's, an aggregation's — drawn from one pool on
// every driver. The table holds key bytes and row numbers and the
// accumulators float64s, so a build reuses whatever an earlier one left, and
// allocates nothing once the pool holds scratch its size. Only vals, an
// aggregation's group columns, holds values; execAgg clears it before the
// scratch goes back, so no pooled scratch keeps a string alive. Every Get is
// a distinct scratch: a build nested under another (a join on a join's probe
// side, a join under an aggregation) never shares one.
type buildScratch struct {
	kt     keyTable
	keyBuf []byte          // build and probe keys, encoded
	acc    []float64       // execAgg: each group's accumulators
	vals   []storage.Value // execAgg: each group's columns
}

var buildScratchPool = sync.Pool{New: func() any { return new(buildScratch) }}

func getScanBuf() *[]storage.ScanRow { return scanBufPool.Get().(*[]storage.ScanRow) }

func putScanBuf(b *[]storage.ScanRow) {
	*b = (*b)[:0]
	scanBufPool.Put(b)
}

func getPostingBuf() *[]index.Entry { return postingBufPool.Get().(*[]index.Entry) }

func putPostingBuf(b *[]index.Entry) {
	*b = (*b)[:0]
	postingBufPool.Put(b)
}

// rowPools[k] holds row arrays of capacity at least 1<<k, each kept as a
// pointer to its first element, so that neither Get nor Put boxes a slice
// header. minRowClass is capHint's floor.
var rowPools [bits.UintSize]sync.Pool

const minRowClass = 4

// pooledRows returns an empty row array with room for n rows, at a power of
// two capacity.
func pooledRows(n int) []storage.Tuple {
	k := minRowClass
	if n > 1<<minRowClass {
		k = bits.Len(uint(n - 1))
	}
	if first, _ := rowPools[k].Get().(*storage.Tuple); first != nil {
		return unsafe.Slice(first, 1<<k)[:0]
	}
	return make([]storage.Tuple, 0, 1<<k)
}

// recycle empties a consumed batch and returns its row array to the pool,
// cleared up to its capacity: a stale tuple header past the batch's length
// (an Exchange window's, a filter's) would otherwise keep its tuple alive.
// An array that grew past its class by append returns to the largest class
// it covers.
func (b *Batch) recycle() {
	rows := b.Rows[:cap(b.Rows)]
	*b = Batch{}
	if len(rows) < 1<<minRowClass {
		return
	}
	clear(rows)
	rowPools[bits.Len(uint(len(rows)))-1].Put(&rows[0])
}

// valueArena hands out tuple backing storage in large chunks so building k
// output tuples costs ~k*width/arenaChunkVals allocations instead of k.
// Tuples are carved with a full slice expression, so appending to one can
// never bleed into its neighbor. The arena never reclaims: handed-out
// memory belongs to whoever holds the tuple, and the in-progress chunk is
// safely reusable across queries on the same Ctx because each region is
// handed out exactly once.
type valueArena struct {
	buf []storage.Value
}

// heap is the nil arena: every tuple it hands out is its own allocation.
// The Materialize driver uses it, because interpreted sessions are too many
// for each to pin an arena chunk.
var heap *valueArena

// alloc returns a zeroed tuple of n values backed by the arena.
func (a *valueArena) alloc(n int) storage.Tuple {
	if a == nil {
		return make(storage.Tuple, n)
	}
	if n > len(a.buf) {
		size := arenaChunkVals
		if n > size {
			size = n
		}
		a.buf = make([]storage.Value, size)
	}
	t := storage.Tuple(a.buf[:n:n])
	a.buf = a.buf[n:]
	return t
}

// projectCols builds the column projection of r in arena storage.
func (a *valueArena) projectCols(r storage.Tuple, cols []int) storage.Tuple {
	t := a.alloc(len(cols))
	for i, c := range cols {
		t[i] = r[c]
	}
	return t
}

// join concatenates two tuples in arena storage.
func (a *valueArena) join(l, r storage.Tuple) storage.Tuple {
	t := a.alloc(len(l) + len(r))
	copy(t, l)
	copy(t[len(l):], r)
	return t
}
