package exec

import (
	"math/bits"
	"sync"
	"weak"

	"mb2/internal/exec/vec"
	"mb2/internal/index"
	"mb2/internal/storage"
)

// Hot-path scratch memory discipline. Every array and scratch struct exec
// reuses lives in one recycled set that all goroutines share under one
// mutex, so a draw sees whatever any goroutine gave back: while the set
// lives, what a statement allocates is a pure function of the statements
// before it, on whichever P they ran. The set lives as long as a sync.Pool's
// contents would: only a weak pointer reaches it, anchor holds it, and every
// lock moves it back into anchor, so an idle set survives one collection and
// the second frees it — unless a Hold is out, which keeps it whatever the
// collector does. The drivers draw four kinds of memory:
//
//   - scratch (scan-row and posting buffers, a vectorized batch, a build's
//     hash table and slabs): given back before the operator that drew it
//     returns; never escapes. A stage's row widths are a run-length widthLog.
//   - per-Ctx scratch (the index join's key buffer, the stage list, the
//     Batch structs of released results): a Ctx is single-worker by
//     contract, so it is reused with no synchronization.
//   - arena-backed output tuples: projected, joined and aggregated tuples
//     are carved out of recycled 4 096-value chunks by the Ctx's valueArena,
//     on every driver; only a partition worker, which runs on another
//     goroutine, makes its own through the nil arena heap. Each region is
//     handed out exactly once, so keeping a fed tuple is safe. A chunk goes
//     back only when the statement that drew it is released (Ctx.Statement,
//     Ctx.ReleaseStatement), cleared first; a result of a caller that never
//     releases owns its chunks.
//   - row arrays (a batch's []storage.Tuple and []storage.RowID), drawn by
//     size class; an array that outgrows its estimate grows into the next
//     class, recycling the outgrown one. A batch that a parent reads once
//     inside exec and then drops — a chain fed to a breaker, a hash join's
//     build side, a partition-wise join worker's build side and output, an
//     index join's outer, a top-n sort's buffer, a DML child — recycles its
//     arrays, cleared, once the parent has read the last row; a statement's
//     result, when the statement is released. Only arrays of tuple headers
//     and row identities are recycled, never a tuple.
//
// See DESIGN.md "Execution: source → stages → sink" for the full retention
// contract.

const (
	scanBatchSize  = 256
	arenaChunkVals = 4096
)

// recycled is everything exec reuses, read and written only under setMu.
type recycled struct {
	rows     freeList[storage.Tuple]
	ids      freeList[storage.RowID]
	scanRows freeList[storage.ScanRow] // scanBatchSize and vec.BatchRows rows
	postings freeList[index.Entry]
	values   freeList[storage.Value] // arena chunks, cleared
	builds   stack[buildScratch]
	batches  stack[vec.Batch]
}

var (
	setMu       sync.Mutex
	recycledSet weak.Pointer[recycled]
	anchor      sync.Pool // the set, dropped after two collections with no lock
	held        *recycled // the set while holds > 0
	holds       int
)

// Hold keeps the recycled set alive until the returned release is called
// (once), however many collections run meanwhile. A caller that runs
// statements between long stretches of other work holds the set across
// them — the control loop from its load to its last interval — so that what
// its statements allocate does not depend on when the collector ran.
func Hold() (release func()) {
	defer setMu.Unlock()
	held = lockSet()
	holds++
	return func() {
		setMu.Lock()
		if holds--; holds == 0 {
			held = nil
		}
		setMu.Unlock()
	}
}

// lockSet locks setMu and returns the set, a new one if the last was freed.
func lockSet() *recycled {
	setMu.Lock()
	r, _ := anchor.Get().(*recycled)
	if r == nil {
		if r = recycledSet.Value(); r == nil {
			r = new(recycled)
			recycledSet = weak.Make(r)
		}
	}
	anchor.Put(r)
	return r
}

// Each draw and return locks the set once.
func getScanBuf(n int) []storage.ScanRow { defer setMu.Unlock(); return lockSet().scanRows.get(n) }
func putScanBuf(b []storage.ScanRow)     { defer setMu.Unlock(); lockSet().scanRows.put(b) }
func getPostingBuf() []index.Entry       { defer setMu.Unlock(); return lockSet().postings.largest(256) }
func putPostingBuf(b []index.Entry)      { defer setMu.Unlock(); lockSet().postings.put(b) }
func pooledRows(n int) []storage.Tuple   { defer setMu.Unlock(); return lockSet().rows.get(n) }
func pooledRowIDs(n int) []storage.RowID { defer setMu.Unlock(); return lockSet().ids.get(n) }
func getBuildScratch() *buildScratch     { defer setMu.Unlock(); return lockSet().builds.pop() }
func putBuildScratch(s *buildScratch)    { defer setMu.Unlock(); lockSet().builds.push(s) }
func getVecBatch() *vec.Batch            { defer setMu.Unlock(); return lockSet().batches.pop() }
func putVecBatch(b *vec.Batch)           { defer setMu.Unlock(); lockSet().batches.push(b) }
func putChunk(c []storage.Value)         { defer setMu.Unlock(); lockSet().values.put(c) }

func getChunk() []storage.Value {
	defer setMu.Unlock()
	return lockSet().values.get(arenaChunkVals)[:arenaChunkVals]
}

// stack is a free list of scratch structs; pop makes one when it is empty.
type stack[T any] []*T

func (s *stack[T]) pop() *T {
	if n := len(*s) - 1; n >= 0 {
		x := (*s)[n]
		(*s)[n], *s = nil, (*s)[:n]
		return x
	}
	return new(T)
}

func (s *stack[T]) push(x *T) { *s = append(*s, x) }

// freeList holds arrays of T in power-of-two size classes: class k holds
// arrays of capacity at least 1<<k. minRowClass is capHint's floor.
type freeList[T any] [bits.UintSize][][]T

const minRowClass = 4

// get returns an empty array with room for n elements: a held one of n's
// class, or a new one at the class's power of two.
func (l *freeList[T]) get(n int) []T {
	k := minRowClass
	if n > 1<<minRowClass {
		k = bits.Len(uint(n - 1))
	}
	if c := l[k]; len(c) > 0 {
		a := c[len(c)-1]
		c[len(c)-1], l[k] = nil, c[:len(c)-1]
		return a[:0]
	}
	return make([]T, 0, 1<<k)
}

// largest returns the largest array held, or a new one with room for n
// elements: a posting buffer grows by append, so the next lookup finds it.
func (l *freeList[T]) largest(n int) []T {
	for k := len(l) - 1; k > minRowClass; k-- {
		if len(l[k]) > 0 {
			return l.get(1 << k)
		}
	}
	return l.get(n)
}

// put keeps a, whose elements the caller has cleared where they must not
// keep a pointer alive, in the largest class its capacity covers.
func (l *freeList[T]) put(a []T) {
	if k := bits.Len(uint(cap(a))) - 1; k >= minRowClass {
		l[k] = append(l[k], a[:0])
	}
}

// buildScratch is a build's hash table and scratch — a hash join's, a
// partition-wise join worker's, an aggregation's — drawn from the set on
// every driver. The table holds key bytes and row numbers and the
// accumulators float64s, so a build reuses whatever an earlier one left, and
// allocates nothing once the set holds scratch its size. Only vals, an
// aggregation's group columns, holds values; execAgg clears it before the
// scratch goes back, so no recycled scratch keeps a string alive. Every draw
// is a distinct scratch: a build nested under another (a join on a join's
// probe side, a join under an aggregation) never shares one.
type buildScratch struct {
	kt     keyTable
	keyBuf []byte          // build and probe keys, encoded
	acc    []float64       // execAgg: each group's accumulators
	vals   []storage.Value // execAgg: each group's columns
}

// recycle empties a batch nobody reads any more and gives its arrays back,
// the row array cleared up to its capacity: a stale tuple header past the
// batch's length (an Exchange window's, a filter's) would otherwise keep its
// tuple alive.
func (b *Batch) recycle() {
	clear(b.Rows[:cap(b.Rows)])
	r := lockSet()
	r.rows.put(b.Rows)
	r.ids.put(b.RowIDs)
	setMu.Unlock()
	*b = Batch{}
}

// valueArena hands out tuple backing storage carved from recycled chunks, so
// building k output tuples costs ~k*width/arenaChunkVals chunk draws instead
// of k allocations. Tuples are carved with a full slice expression, so
// appending to one can never bleed into its neighbor; a tuple wider than a
// chunk is its own allocation.
//
// Handed-out memory belongs to whoever holds the tuple until the statement
// that carved it is released. The arena knows the region one statement
// carved — the chunk and offset at its mark, the chunks it drew, the carve
// count when it ended — and release clears exactly those values, gives the
// drawn chunks back to the set and rewinds the chunk current at the mark,
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

// release gives the region back — cleared, its drawn chunks to the set —
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
				putChunk(c)
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
