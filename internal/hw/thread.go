package hw

// Thread is a simulated hardware thread: the context every operator charges
// its work to. It is not safe for concurrent use; each logical worker owns
// one Thread, mirroring MB2's thread-local metrics collection (Sec 6.1).
type Thread struct {
	cpu CPU
	c   Counters
}

// NewThread returns a thread running on the given CPU.
func NewThread(cpu CPU) *Thread {
	return &Thread{cpu: cpu}
}

// CPU returns the processor the thread runs on.
func (t *Thread) CPU() CPU { return t.cpu }

// Counters returns a snapshot of the raw accumulators.
func (t *Thread) Counters() Counters { return t.c }

// Since derives the nine labels for the work performed since the snapshot.
func (t *Thread) Since(start Counters) Metrics {
	return t.cpu.Derive(t.c.Sub(start))
}

// Absorb folds another thread's counter delta into this thread: the
// fan-in of parallel work onto the session thread. Parallel operators
// absorb only the critical-path worker's delta so derived elapsed time
// reflects the slowest chain, the same accounting engine.CreateIndex uses
// for concurrent index builds.
func (t *Thread) Absorb(d Counters) {
	t.c = t.c.Add(d)
}

// SeqRead charges a streaming read of n items of the given size: sequential
// scans, sort output iteration, buffer copies. The prefetcher covers most of
// the traffic, so the miss ratio is low and size-independent.
func (t *Thread) SeqRead(n, bytesPerItem float64) {
	lines := n * bytesPerItem / CacheLineBytes
	if lines < 1 {
		lines = 1
	}
	t.c.Instructions += n * 8
	t.c.CacheRefs += lines
	t.c.CacheMisses += lines * t.cpu.SeqMissRatio
}

// SeqWrite charges a streaming write of n items (materializing output,
// building sort buffers, serializing log records).
func (t *Thread) SeqWrite(n, bytesPerItem float64) {
	lines := n * bytesPerItem / CacheLineBytes
	if lines < 1 {
		lines = 1
	}
	t.c.Instructions += n * 10
	t.c.CacheRefs += lines
	t.c.CacheMisses += lines * t.cpu.SeqMissRatio
}

// RandRead charges n random accesses into a structure of structBytes total
// size (hash probes, index traversals, version-chain walks). loops > 1
// indicates the structure is revisited in a loop and therefore cache-warm.
func (t *Thread) RandRead(n, structBytes, loops float64) {
	p := t.cpu.RandMissProb(structBytes, loops)
	t.c.Instructions += n * 12
	t.c.CacheRefs += n * 2
	t.c.CacheMisses += n * 2 * p
}

// RandWrite charges n random writes into a structure of structBytes total
// size (hash-table inserts, B+tree leaf installs).
func (t *Thread) RandWrite(n, structBytes float64) {
	p := t.cpu.RandMissProb(structBytes, 1)
	t.c.Instructions += n * 14
	t.c.CacheRefs += n * 2
	t.c.CacheMisses += n * 2 * p
}

// Compute charges n scalar operations (arithmetic, comparisons, hashing).
func (t *Thread) Compute(n float64) {
	t.c.Instructions += n
}

// Alloc charges a memory allocation and records it against the memory label.
func (t *Thread) Alloc(bytes float64) {
	if bytes <= 0 {
		return
	}
	t.c.MemoryBytes += bytes
	t.c.Instructions += 200 + bytes/256
	t.c.CacheRefs += bytes / CacheLineBytes * 0.1
}

// Free releases previously charged memory. Metrics deltas taken across a
// Free see reduced MemoryBytes, which is how short-lived intermediates
// (e.g. per-query hash tables) net out of interval totals.
func (t *Thread) Free(bytes float64) {
	if bytes <= 0 {
		return
	}
	t.c.MemoryBytes -= bytes
	t.c.Instructions += 100
}

// Latch charges one latch acquisition with the given number of contending
// threads. Uncontended latches are a couple of atomic operations; contended
// ones burn cycles spinning and bouncing the line between cores.
func (t *Thread) Latch(contenders float64) {
	if contenders < 1 {
		contenders = 1
	}
	t.c.Instructions += 20 + 60*(contenders-1)
	t.c.CacheRefs += 1 + (contenders - 1)
	t.c.CacheMisses += 0.8 * (contenders - 1)
}

// ReadBlocks charges n disk-block reads. The wait is elapsed but not on-CPU.
func (t *Thread) ReadBlocks(n float64) {
	t.c.BlockReads += n
	t.c.Instructions += n * 600
	t.c.IOWaitUS += n * t.cpu.BlockReadUS
}

// WriteBlocks charges n disk-block writes (log flushes).
func (t *Thread) WriteBlocks(n float64) {
	t.c.BlockWrites += n
	t.c.Instructions += n * 600
	t.c.IOWaitUS += n * t.cpu.BlockWriteUS
}

// Sleep charges pure elapsed time with no work: it models the injected
// 1us sleeps of the software-update experiment (Sec 8.5).
func (t *Thread) Sleep(us float64) {
	t.c.IOWaitUS += us
}
