package hw

import (
	"errors"
	"sync"
)

// ErrDeviceCrashed is returned by a device that has hit its crash point.
// Once crashed, every subsequent operation fails: the instance is dead and
// only its durable image (Contents) survives for recovery.
var ErrDeviceCrashed = errors.New("hw: block device crashed")

// ErrTransientWrite is a retryable write failure (a busy bus, a controller
// hiccup). The write landed nowhere; the caller may retry the whole append.
var ErrTransientWrite = errors.New("hw: transient write failure")

// BlockDevice is the durable byte store WAL segments and checkpoint images
// live on. It is append-only between Resets; Reset models an atomic switch
// of the whole image (in a real system: writing a fresh file and renaming it
// over the old one, which the filesystem makes atomic per file). The WAL
// appends to its device and truncates it with Reset; a checkpoint device is
// only ever Reset, so it holds exactly one image.
//
// Append returns how many bytes became durable before any injected fault, so
// a crash mid-append leaves a torn tail — exactly the image recovery must
// tolerate. Implementations are safe for concurrent use.
type BlockDevice interface {
	// Append writes p after the current contents. n is the number of bytes
	// that became durable (n < len(p) only when err != nil).
	Append(p []byte) (n int, err error)
	// Contents returns a copy of the durable image: the whole-image read of
	// recovery and the drills.
	Contents() []byte
	// Views appends to dst read-only views of the durable image from byte
	// off to its end (none when off is at or past the end) and returns the
	// result: the read of a log shipper that already holds the first off
	// bytes, which copies nothing. A view's bytes never change — the device
	// never rewrites a byte it holds, and Reset moves to new storage — so a
	// view stays valid after the call returns, across later appends and
	// resets; its capacity ends where its bytes do, so a caller's append
	// cannot reach the device.
	Views(dst [][]byte, off int) [][]byte
	// Len returns the durable image size in bytes.
	Len() int
	// Reset atomically replaces the contents with p (log truncation,
	// checkpoint publication): a reader sees the old image or the new one.
	Reset(p []byte) error
}

// MemDevice is a fault-free in-memory block device: the default backing for
// engines that do not inject failures. The image is a list of chunks that
// are never moved: an append allocates the bytes it adds and copies nothing
// already written, and chunk boundaries fall at fixed offsets of the image —
// a function of its length, never of how the writes were sized — so two runs
// that log the same bytes in differently sized flushes allocate and retain
// the same memory.
type MemDevice struct {
	mu     sync.Mutex
	chunks [][]byte // every chunk but the last is full
	n      int      // image length
}

// A chunk is as large as the image before it, between these limits: a small
// device stays small, a large one wastes at most memChunkMax.
const (
	memChunkMin = 4 << 10
	memChunkMax = 1 << 20
)

// NewMemDevice returns an empty fault-free device.
func NewMemDevice() *MemDevice { return &MemDevice{} }

// write appends p to the image. The caller holds d.mu.
func (d *MemDevice) write(p []byte) {
	for len(p) > 0 {
		last := len(d.chunks) - 1
		if last < 0 || len(d.chunks[last]) == cap(d.chunks[last]) {
			d.chunks = append(d.chunks, make([]byte, 0, min(max(d.n, memChunkMin), memChunkMax)))
			last++
		}
		c := d.chunks[last]
		k := min(len(p), cap(c)-len(c))
		d.chunks[last] = append(c, p[:k]...)
		d.n += k
		p = p[k:]
	}
}

// Append implements BlockDevice.
func (d *MemDevice) Append(p []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.write(p)
	return len(p), nil
}

// Contents implements BlockDevice.
func (d *MemDevice) Contents() []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.n == 0 {
		return nil
	}
	out := make([]byte, 0, d.n)
	for _, c := range d.chunks {
		out = append(out, c...)
	}
	return out
}

// Views implements BlockDevice. Only the last chunk still grows, and only
// past the end of any view of it.
func (d *MemDevice) Views(dst [][]byte, off int) [][]byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	off = max(off, 0)
	for _, c := range d.chunks {
		if off >= len(c) {
			off -= len(c)
			continue
		}
		dst = append(dst, c[off:len(c):len(c)])
		off = 0
	}
	return dst
}

// Len implements BlockDevice.
func (d *MemDevice) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.n
}

// Reset implements BlockDevice.
func (d *MemDevice) Reset(p []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.chunks, d.n = nil, 0
	d.write(p)
	return nil
}

// FaultPlan is a deterministic fault schedule for a FaultDevice. Offsets
// count cumulative bytes the device was asked to make durable since its
// creation or last Reset: a Reset rearms the whole schedule (byte offsets,
// append counters, transient-failure counters) together with the contents,
// so replaying the same seeded write sequence after a Reset faults at
// exactly the same places as a fresh device. Negative offsets and zero
// counters disable the corresponding fault.
type FaultPlan struct {
	// CrashAtByte tears the write stream at this cumulative byte offset:
	// bytes before it become durable, everything after is lost, and the
	// device is dead from then on.
	CrashAtByte int64
	// TransientEvery fails every Nth Append attempt once with
	// ErrTransientWrite (nothing written); the retry succeeds.
	TransientEvery int
	// DropFromAppend silently discards every append starting with this
	// 0-based successful-append index: the "lost volatile cache" failure
	// where writes report success but never reach the platter.
	DropFromAppend int64
	// FlipBitAtByte XORs FlipBitMask into the byte written at this
	// cumulative offset (durable corruption a checksum must catch).
	FlipBitAtByte int64
	// FlipBitMask is the XOR mask for FlipBitAtByte; 0 means 0x80.
	FlipBitMask byte
}

// NoFaults returns a plan with every fault disabled.
func NoFaults() FaultPlan {
	return FaultPlan{CrashAtByte: -1, DropFromAppend: -1, FlipBitAtByte: -1}
}

// FaultDevice wraps an inner device with the deterministic fault schedule of
// a FaultPlan.
type FaultDevice struct {
	mu       sync.Mutex
	inner    BlockDevice
	plan     FaultPlan
	written  int64 // cumulative bytes made durable (or dropped)
	attempts int64 // Append attempts, for TransientEvery
	appends  int64 // successful appends, for DropFromAppend
	dead     bool
}

// NewFaultDevice wraps inner with the given plan. A nil inner gets a fresh
// MemDevice.
func NewFaultDevice(inner BlockDevice, plan FaultPlan) *FaultDevice {
	if inner == nil {
		inner = NewMemDevice()
	}
	return &FaultDevice{inner: inner, plan: plan}
}

// Crashed reports whether the device hit its crash point.
func (d *FaultDevice) Crashed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dead
}

// corrupt applies the bit-flip fault to the chunk of the write stream that
// starts at cumulative offset base.
func (d *FaultDevice) corrupt(p []byte, base int64) []byte {
	at := d.plan.FlipBitAtByte
	if at < base || at >= base+int64(len(p)) {
		return p
	}
	mask := d.plan.FlipBitMask
	if mask == 0 {
		mask = 0x80
	}
	q := append([]byte(nil), p...)
	q[at-base] ^= mask
	return q
}

// Append implements BlockDevice, applying the fault plan in order: crash
// check, transient failure, silent drop, bit flip, tear.
func (d *FaultDevice) Append(p []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dead {
		return 0, ErrDeviceCrashed
	}
	d.attempts++
	if te := d.plan.TransientEvery; te > 0 && d.attempts%int64(te) == 0 {
		return 0, ErrTransientWrite
	}
	durable := p
	if at := d.plan.CrashAtByte; at >= 0 && at < d.written+int64(len(p)) {
		durable = p[:at-d.written]
		d.dead = true
	}
	dropped := d.plan.DropFromAppend >= 0 && d.appends >= d.plan.DropFromAppend
	if !dropped && len(durable) > 0 {
		if _, err := d.inner.Append(d.corrupt(durable, d.written)); err != nil {
			return 0, err
		}
	}
	d.written += int64(len(durable))
	if d.dead {
		return len(durable), ErrDeviceCrashed
	}
	d.appends++
	return len(p), nil
}

// Contents implements BlockDevice; the durable image survives a crash.
func (d *FaultDevice) Contents() []byte { return d.inner.Contents() }

// Views implements BlockDevice.
func (d *FaultDevice) Views(dst [][]byte, off int) [][]byte { return d.inner.Views(dst, off) }

// Len implements BlockDevice.
func (d *FaultDevice) Len() int { return d.inner.Len() }

// Reset implements BlockDevice. Reset rearms the fault schedule: every
// counter (cumulative byte offset, append index, transient-attempt count)
// restarts with the replacement contents, so two "identical" seeded runs
// separated by a Reset see identical faults. (The old behavior — counters
// surviving the Reset — made the second run diverge: a TransientEvery plan's
// Nth-append counter kept ticking across the truncation.) A crash point
// inside the replacement image kills the device with the old contents
// intact: the atomic segment switch never happened.
func (d *FaultDevice) Reset(p []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dead {
		return ErrDeviceCrashed
	}
	d.written, d.attempts, d.appends = 0, 0, 0
	if at := d.plan.CrashAtByte; at >= 0 && at < int64(len(p)) {
		d.dead = true
		d.written = at
		return ErrDeviceCrashed
	}
	if err := d.inner.Reset(d.corrupt(p, 0)); err != nil {
		return err
	}
	d.written = int64(len(p))
	return nil
}
