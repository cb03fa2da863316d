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
//   - per-Ctx scratch (the index join's key buffer, the stage list, the
//     Batch structs of released results): a Ctx is single-worker by
//     contract, so it is reused with no synchronization.
//   - arena-backed output tuples: projected, joined and aggregated tuples
//     are carved out of pooled 4 096-value chunks by the Ctx's valueArena,
//     on every driver; only a partition worker, which runs on another
//     goroutine, makes its own through the nil arena heap. Each region is
//     handed out exactly once, so keeping a fed tuple is safe. A chunk
//     returns to the pool only when the statement that drew it is released
//     (Ctx.Statement, Ctx.ReleaseStatement), cleared first; a result of a
//     caller that never releases owns its chunks.
//   - pooled row arrays (a batch's []storage.Tuple and []storage.RowID):
//     every batch draws its arrays from size-classed pools, and an array
//     that outgrows its estimate grows into the next class, recycling the
//     outgrown one. A batch that a parent reads once inside exec and then
//     drops — a chain fed to a breaker, a hash join's build side, a
//     partition-wise join worker's build side and output, an index join's
//     outer, a top-n sort's buffer, a DML child — recycles its arrays,
//     cleared, once the parent has read the last row; a statement's result
//     recycles them when the statement is released. Only arrays of tuple
//     headers and row identities are recycled, never a tuple.
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

// classPool holds arrays of T in power-of-two size classes: class k holds
// arrays of capacity at least 1<<k, each kept as a pointer to its first
// element, so that neither Get nor Put boxes a slice header. minRowClass is
// capHint's floor.
type classPool[T any] [bits.UintSize]sync.Pool

const minRowClass = 4

// get returns an empty array with room for n elements, at a power of two
// capacity.
func (p *classPool[T]) get(n int) []T {
	k := minRowClass
	if n > 1<<minRowClass {
		k = bits.Len(uint(n - 1))
	}
	if first, _ := p[k].Get().(*T); first != nil {
		return unsafe.Slice(first, 1<<k)[:0]
	}
	return make([]T, 0, 1<<k)
}

// put returns a, whose elements the caller has cleared where they hold
// pointers, to the largest class its capacity covers.
func (p *classPool[T]) put(a []T) {
	a = a[:cap(a)]
	if len(a) < 1<<minRowClass {
		return
	}
	p[bits.Len(uint(len(a)))-1].Put(&a[0])
}

// rowPools and idPools hold a batch's row arrays and row identities.
var (
	rowPools classPool[storage.Tuple]
	idPools  classPool[storage.RowID]
)

// pooledRows returns an empty row array with room for n rows.
func pooledRows(n int) []storage.Tuple { return rowPools.get(n) }

// pooledRowIDs returns an empty row-identity array with room for n rows.
func pooledRowIDs(n int) []storage.RowID { return idPools.get(n) }

// recycle empties a batch nobody reads any more and returns its arrays to
// the pools, the row array cleared up to its capacity: a stale tuple header
// past the batch's length (an Exchange window's, a filter's) would otherwise
// keep its tuple alive.
func (b *Batch) recycle() {
	rows := b.Rows[:cap(b.Rows)]
	clear(rows)
	rowPools.put(rows)
	if b.RowIDs != nil {
		idPools.put(b.RowIDs)
	}
	*b = Batch{}
}

// chunkPool holds cleared arena chunks of arenaChunkVals values, each kept
// as a pointer to its first value.
var chunkPool sync.Pool

func getChunk() []storage.Value {
	if first, _ := chunkPool.Get().(*storage.Value); first != nil {
		return unsafe.Slice(first, arenaChunkVals)
	}
	return make([]storage.Value, arenaChunkVals)
}

// valueArena hands out tuple backing storage carved from pooled chunks, so
// building k output tuples costs ~k*width/arenaChunkVals chunk draws instead
// of k allocations. Tuples are carved with a full slice expression, so
// appending to one can never bleed into its neighbor; a tuple wider than a
// chunk is its own allocation.
//
// Handed-out memory belongs to whoever holds the tuple until the statement
// that carved it is released. The arena knows the region one statement
// carved — the chunk and offset at its mark, the chunks it drew, the carve
// count when it ended — and release clears exactly those values, gives the
// drawn chunks back to the pool and rewinds the chunk current at the mark,
// which may be shared with an earlier result nobody released. If anything
// was carved after the statement ended (a caller running Execute on the
// statement's Ctx in between), those values follow the region in the
// arena, so release forgets the region instead: its chunks stay with
// whoever holds them.
type valueArena struct {
	chunk  []storage.Value // the chunk being carved, whole; nil before the first draw
	off    int             // the next value to carve in chunk
	carved uint64          // tuples carved so far

	region    region
	markChunk []storage.Value // chunk at the mark
	markOff   int             // off at the mark
	drawn     [][]storage.Value
	endCarved uint64 // carved when the statement ended
}

// region is the state of the statement region a valueArena tracks.
type region uint8

const (
	noRegion    region = iota
	openRegion         // between mark and end: chunks drawn are recorded
	endedRegion        // between end and release
)

// alloc returns a tuple of n values backed by the arena (its own allocation
// from the nil arena). Its values are zero, and the caller overwrites every
// one.
func (a *valueArena) alloc(n int) storage.Tuple {
	if a == nil || n > arenaChunkVals {
		return make(storage.Tuple, n)
	}
	if n > len(a.chunk)-a.off {
		a.chunk, a.off = getChunk(), 0
		if a.region == openRegion {
			a.drawn = append(a.drawn, a.chunk)
		}
	}
	t := storage.Tuple(a.chunk[a.off : a.off+n : a.off+n])
	a.off += n
	a.carved++
	return t
}

// mark opens a statement's region at the arena's current position.
func (a *valueArena) mark() {
	a.region = openRegion
	a.markChunk, a.markOff = a.chunk, a.off
}

// end closes the open region: the statement carves nothing more.
func (a *valueArena) end() {
	a.region = endedRegion
	a.endCarved = a.carved
}

// release gives the region back — cleared, its drawn chunks to the pool —
// when nothing was carved after it ended, and forgets it otherwise.
func (a *valueArena) release() {
	if a.region == endedRegion && a.carved == a.endCarved {
		if len(a.drawn) == 0 {
			clear(a.chunk[a.markOff:a.off])
		} else {
			clear(a.markChunk[a.markOff:])
			last := len(a.drawn) - 1
			for i, c := range a.drawn {
				if i == last {
					clear(c[:a.off])
				} else {
					clear(c)
				}
				chunkPool.Put(&c[0])
			}
			a.chunk = a.markChunk
		}
		a.off = a.markOff
	}
	clear(a.drawn)
	a.drawn = a.drawn[:0]
	a.markChunk = nil
	a.region = noRegion
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
