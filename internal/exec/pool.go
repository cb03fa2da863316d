package exec

import (
	"sync"

	"mb2/internal/index"
	"mb2/internal/storage"
)

// Hot-path scratch memory discipline. The streaming drivers draw three kinds
// of buffers:
//
//   - pooled scratch (scan-row buffers, posting buffers, width buffers — a
//     stage's and a breaker's shape's alike): returned to a sync.Pool
//     before Execute returns; never escapes.
//   - per-Ctx scratch (join and group key buffers): a Ctx is single-worker
//     by contract, so its key buffer is reused row-to-row with no
//     synchronization.
//   - arena-backed output tuples: projected/joined tuples are carved out of
//     chunked []storage.Value blocks owned by whoever holds the tuple — the
//     returned Batch, or a breaker that kept what it was fed (a sort
//     buffer). Each region is handed out exactly once, so keeping a fed
//     tuple is safe; arena chunks are NOT pooled, because results
//     legitimately outlive the query.
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

var intBufPool = sync.Pool{
	New: func() any { b := make([]int, 0, 1024); return &b },
}

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

func getIntBuf() *[]int { return intBufPool.Get().(*[]int) }

func putIntBuf(b *[]int) {
	*b = (*b)[:0]
	intBufPool.Put(b)
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
