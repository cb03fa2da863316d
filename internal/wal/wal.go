// Package wal implements write-ahead logging: per-transaction redo-record
// serialization into log buffers and periodic group flushes to a simulated
// block device. Serialization and flushing are the paper's two WAL batch
// OUs (Table 1).
//
// Durable format. A log-device image is one segment: a fixed header
// (magic, checkpoint epoch, header CRC) followed by record frames. Every
// frame is [u32 body length][u32 CRC-32C of body][body], so recovery can
// walk the image, verify each record, and stop cleanly at the first torn or
// corrupt frame — the longest-valid-prefix contract DeserializePrefix
// implements. Checkpoint images (see Checkpoint) share the frame encoding
// for their row payload; CheckpointEncoder is their one encoder and
// LastValidCheckpoint their one decoder.
//
// Every pass sizes its large buffers once: Serialize encodes into a buffer
// of the records' summed EncodedLen (a bulk one becomes the log buffer
// itself), Flush gathers into a write of the sealed buffers' byte count,
// and a checkpoint image is encoded in place from the row scans. Steady-state
// passes reuse the Manager's scratch and allocate nothing.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sync"

	"mb2/internal/catalog"

	"mb2/internal/hw"
	"mb2/internal/storage"
)

// RecordType distinguishes redo record kinds.
type RecordType byte

// Redo record kinds.
const (
	RecordInsert RecordType = iota + 1
	RecordUpdate
	RecordDelete
	RecordCommit
)

// Limits on a single record. Varchar lengths and payload column counts are
// encoded as uint32, so nothing truncates silently below these bounds;
// anything above them is rejected by Validate (and therefore by
// Manager.Enqueue) with an explicit error instead.
const (
	// MaxVarcharBytes bounds one varchar value's encoded length.
	MaxVarcharBytes = 1 << 24
	// MaxPayloadValues bounds the number of columns in one record payload.
	MaxPayloadValues = 1 << 20
)

// ErrRecordTooLarge is returned (wrapped) for records exceeding the encoding
// limits.
var ErrRecordTooLarge = errors.New("wal: record exceeds encoding limits")

// frameOverhead is the per-record framing cost: length prefix + body CRC.
const frameOverhead = 8

// crcTable is the Castagnoli polynomial every frame CRC uses.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Record is one redo log record.
type Record struct {
	Type    RecordType
	TxnID   uint64
	TableID int32
	Row     int64
	Payload storage.Tuple // nil for deletes/commits
}

// Validate checks the record against the encoding limits. Manager.Enqueue
// rejects invalid records, so nothing unencodable reaches the log.
func (r Record) Validate() error {
	if len(r.Payload) > MaxPayloadValues {
		return fmt.Errorf("%w: %d payload values (max %d)", ErrRecordTooLarge, len(r.Payload), MaxPayloadValues)
	}
	for i, v := range r.Payload {
		if v.Kind == catalog.Varchar && len(v.S) > MaxVarcharBytes {
			return fmt.Errorf("%w: varchar value %d is %d bytes (max %d)", ErrRecordTooLarge, i, len(v.S), MaxVarcharBytes)
		}
	}
	return nil
}

// EncodedLen returns how many bytes Serialize appends for the record: its
// frame header, record header and values. A pass sizes its buffer from it
// once instead of growing it record by record.
func (r Record) EncodedLen() int {
	n := frameOverhead + recordHeaderLen
	for _, v := range r.Payload {
		// A kind byte, then a varchar's length and bytes or a number's
		// eight bytes.
		if v.Kind == catalog.Varchar {
			n += 1 + 4 + len(v.S)
		} else {
			n += 1 + 8
		}
	}
	return n
}

// Serialize appends the framed binary encoding of the record to dst and
// returns the extended slice: [length][CRC-32C][body]. The record must pass
// Validate; Manager.Enqueue enforces that before a record can reach a log
// buffer.
func (r Record) Serialize(dst []byte) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // length + CRC placeholders
	dst = append(dst, byte(r.Type))
	var scratch [8]byte
	binary.LittleEndian.PutUint64(scratch[:], r.TxnID)
	dst = append(dst, scratch[:]...)
	binary.LittleEndian.PutUint32(scratch[:4], uint32(r.TableID))
	dst = append(dst, scratch[:4]...)
	binary.LittleEndian.PutUint64(scratch[:], uint64(r.Row))
	dst = append(dst, scratch[:]...)
	binary.LittleEndian.PutUint32(scratch[:4], uint32(len(r.Payload)))
	dst = append(dst, scratch[:4]...)
	for _, v := range r.Payload {
		dst = append(dst, byte(v.Kind))
		switch v.Kind {
		case catalog.Varchar:
			binary.LittleEndian.PutUint32(scratch[:4], uint32(len(v.S)))
			dst = append(dst, scratch[:4]...)
			dst = append(dst, v.S...)
		default:
			// Int64 and Float64 alike: I holds the integer or the
			// float's IEEE-754 bits.
			binary.LittleEndian.PutUint64(scratch[:], uint64(v.I))
			dst = append(dst, scratch[:8]...)
		}
	}
	body := dst[start+frameOverhead:]
	binary.LittleEndian.PutUint32(dst[start:start+4], uint32(len(body)))
	binary.LittleEndian.PutUint32(dst[start+4:start+8], crc32.Checksum(body, crcTable))
	return dst
}

// Manager queues redo records, serializes them into log buffers, and
// flushes sealed buffers in groups. Queueing happens on query threads and
// is cheap; serialization and flushing run on the dedicated log-manager
// thread and are the two WAL batch OUs.
//
// Two ordering disciplines keep the durable image replayable:
//
//   - serMu serializes whole Serialize passes, so records enter log buffers
//     in enqueue order even if two drains race.
//   - flushMu serializes the drain-sealed-buffers → device-append window, so
//     two concurrent flushes can never interleave the durable image out of
//     seal order (which would break commit-ordered replay).
type Manager struct {
	mu          sync.Mutex
	bufferBytes int
	queue       []Record
	current     []byte
	sealed      [][]byte

	serializedRecords uint64
	serializedBytes   uint64
	flushedBytes      uint64
	flushedBuffers    uint64
	flushes           uint64
	flushRetries      uint64
	rejected          uint64

	serMu   sync.Mutex
	flushMu sync.Mutex

	// Scratch reused across passes so a steady-state pass allocates
	// nothing: spareQueue and serBuf belong to serMu (the drained queue's
	// storage, handed back to Enqueue by the next drain, and the encode
	// buffer), flushBuf to flushMu (the gathered device write); Flush hands
	// the log buffer's storage back to current once it is copied out.
	// Each pass sizes its buffer once, from the records' EncodedLen or the
	// sealed buffers' byte count. Storage a bulk pass needed past
	// maxScratch (for the queue, past keepRecords) is dropped, not kept on
	// the heap; a bulk encode buffer becomes the log buffer itself.
	spareQueue  []Record
	serBuf      []byte
	flushBuf    []byte
	keepRecords int // guarded by serMu; see DrainEvery

	// dev is the durable image; epoch/headerWritten (guarded by flushMu)
	// track the current segment.
	dev           hw.BlockDevice
	epoch         uint64
	headerWritten bool
}

// maxScratchBytes and maxScratchRecords bound the scratch a Manager keeps
// between passes (about 256 KB each): several default log buffers, so
// steady-state passes reuse it, and far below the one pass that drains a
// bulk load, whose storage is garbage as it was before there was scratch.
const (
	maxScratchBytes   = 256 << 10
	maxScratchRecords = 4 << 10
)

// recordsPerWriteTxn is the fewest records a write transaction logs: one
// write and its commit record.
const recordsPerWriteTxn = 2

// DrainEvery tells the manager that its queue is drained about every
// writeTxns write transactions — the back-pressure of a maintenance cadence
// (exec.Maintainer) — so a queue that size is steady state, not a bulk load:
// the drained queue's storage is kept for Enqueue up to twice those
// transactions' records (append grows a slice past its last element), where
// it would be dropped past maxScratchRecords.
func (m *Manager) DrainEvery(writeTxns int) {
	m.serMu.Lock()
	defer m.serMu.Unlock()
	m.keepRecords = max(m.keepRecords, 2*recordsPerWriteTxn*writeTxns)
}

// scratch returns b's storage, emptied, for the next pass to reuse — or nil
// when b outgrew limit.
func scratch[T any](b []T, limit int) []T {
	if cap(b) > limit {
		return nil
	}
	return b[:0]
}

// Flush retry policy for transient device failures: bounded attempts with
// exponential backoff, each wait charged to the flushing thread.
const (
	flushMaxRetries      = 6
	flushRetryBackoffUS  = 50
	flushRetryBackoffCap = 1600
)

// NewManagerOn returns a WAL writing to the given block device (a
// hw.FaultDevice under fault injection). A nil device gets a MemDevice.
func NewManagerOn(bufferBytes int, dev hw.BlockDevice) *Manager {
	if bufferBytes <= 0 {
		bufferBytes = 64 * 1024
	}
	if dev == nil {
		dev = hw.NewMemDevice()
	}
	return &Manager{bufferBytes: bufferBytes, dev: dev}
}

// Device returns the manager's block device.
func (m *Manager) Device() hw.BlockDevice { return m.dev }

// Epoch returns the current segment's checkpoint epoch.
func (m *Manager) Epoch() uint64 {
	m.flushMu.Lock()
	defer m.flushMu.Unlock()
	return m.epoch
}

// Enqueue hands a redo record to the log manager. The queue hand-off is the
// only cost the issuing query thread pays. Records that exceed the encoding
// limits are rejected here — the explicit error path that replaced the old
// silent uint16 truncation of varchar lengths and payload column counts.
func (m *Manager) Enqueue(th *hw.Thread, r Record) error {
	if err := r.Validate(); err != nil {
		m.mu.Lock()
		m.rejected++
		m.mu.Unlock()
		return err
	}
	m.mu.Lock()
	m.queue = append(m.queue, r)
	m.mu.Unlock()
	if th != nil {
		th.Compute(40)
	}
	return nil
}

// SerializeStats summarizes one serialization pass: the log-record-serialize
// OU's batch of work.
type SerializeStats struct {
	Records int
	Bytes   int
	Buffers int // buffers sealed during this pass
}

// Serialize drains the record queue into log buffers, charging the encoding
// work to th (the log-manager thread). Passes are serialized with respect to
// each other so racing drains cannot reorder records across batches.
func (m *Manager) Serialize(th *hw.Thread) SerializeStats {
	m.serMu.Lock()
	defer m.serMu.Unlock()

	m.mu.Lock()
	queue := m.queue
	m.queue = m.spareQueue
	m.mu.Unlock()

	st := SerializeStats{Records: len(queue)}
	for _, r := range queue {
		st.Bytes += r.EncodedLen()
	}
	local := slices.Grow(m.serBuf[:0], st.Bytes)
	for _, r := range queue {
		local = r.Serialize(local)
	}
	m.serBuf = scratch(local, maxScratchBytes)
	clear(queue) // drop the payload references before the storage is reused
	m.spareQueue = scratch(queue, max(maxScratchRecords, m.keepRecords))
	if th != nil && st.Records > 0 {
		th.SeqRead(float64(st.Records), 48)
		th.SeqWrite(float64(st.Bytes)/8, 8)
		th.Compute(float64(st.Records) * 80)
	}

	m.mu.Lock()
	m.serializedRecords += uint64(st.Records)
	m.serializedBytes += uint64(st.Bytes)
	if len(m.current) == 0 && cap(local) > maxScratchBytes {
		// A bulk pass's buffer is not kept as scratch: it becomes the log
		// buffer itself rather than being copied into one.
		m.current = local
	} else {
		m.current = append(m.current, local...)
	}
	// Room for every buffer this pass seals and the one Flush seals.
	m.sealed = slices.Grow(m.sealed, len(m.current)/m.bufferBytes+1)
	for len(m.current) >= m.bufferBytes {
		buf := m.current[:m.bufferBytes]
		m.current = m.current[m.bufferBytes:]
		m.sealed = append(m.sealed, buf)
		st.Buffers++
	}
	m.mu.Unlock()
	return st
}

// PendingRecords returns how many enqueued records await serialization.
func (m *Manager) PendingRecords() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.queue)
}

// FlushStats summarizes one flush invocation: the log-flush OU's work.
type FlushStats struct {
	Bytes   int
	Buffers int
	Blocks  int
	Retries int // transient device failures retried during this flush
}

// Flush seals the current buffer and writes everything outstanding to the
// device, charging block writes to th. Transient device write failures are
// retried with bounded exponential backoff (each wait charged to th as I/O
// time); a crashed device surfaces as an error and the un-written buffers
// are lost with the instance, exactly as a real crash would lose them.
// flushMu keeps drain order and device-append order identical across
// concurrent callers.
func (m *Manager) Flush(th *hw.Thread) (FlushStats, error) {
	m.flushMu.Lock()
	defer m.flushMu.Unlock()

	m.mu.Lock()
	if len(m.current) > 0 {
		m.sealed = append(m.sealed, m.current)
		m.current = nil
	}
	buffers := m.sealed
	m.sealed = nil
	m.mu.Unlock()

	var st FlushStats
	for _, b := range buffers {
		st.Bytes += len(b)
		st.Buffers++
	}
	if st.Bytes == 0 {
		m.mu.Lock()
		m.flushes++
		m.mu.Unlock()
		return st, nil
	}

	need := st.Bytes
	if !m.headerWritten {
		need += SegmentHeaderLen
	}
	write := slices.Grow(m.flushBuf[:0], need)
	if !m.headerWritten {
		write = appendSegmentHeader(write, m.epoch)
	}
	for _, b := range buffers {
		write = append(write, b...)
	}
	m.flushBuf = scratch(write, maxScratchBytes)
	if th != nil {
		th.SeqRead(float64(st.Bytes)/64, 64) // gather buffers
	}
	if err := m.appendWithRetry(th, write, &st); err != nil {
		return st, err
	}
	m.headerWritten = true

	st.Blocks = (len(write) + hw.BlockBytes - 1) / hw.BlockBytes
	if th != nil {
		th.WriteBlocks(float64(st.Blocks))
	}
	m.mu.Lock()
	m.flushedBytes += uint64(st.Bytes)
	m.flushedBuffers += uint64(st.Buffers)
	m.flushes++
	m.flushRetries += uint64(st.Retries)
	// The buffers are on the device. The first one starts the storage
	// Serialize grew since the last flush: it becomes the next log buffer,
	// and the sealed list's storage the next list, unless a Serialize that
	// ran meanwhile started its own.
	if cap(m.current) == 0 {
		m.current = scratch(buffers[0][:0], maxScratchBytes)
	}
	if m.sealed == nil {
		clear(buffers)
		m.sealed = buffers[:0]
	}
	m.mu.Unlock()
	return st, nil
}

// appendWithRetry performs one durable append, absorbing up to
// flushMaxRetries transient failures with exponential backoff.
func (m *Manager) appendWithRetry(th *hw.Thread, p []byte, st *FlushStats) error {
	backoff := float64(flushRetryBackoffUS)
	for attempt := 0; ; attempt++ {
		_, err := m.dev.Append(p)
		if err == nil {
			return nil
		}
		if !errors.Is(err, hw.ErrTransientWrite) || attempt >= flushMaxRetries {
			return fmt.Errorf("wal: flush: %w", err)
		}
		st.Retries++
		if th != nil {
			th.Sleep(backoff)
		}
		if backoff < flushRetryBackoffCap {
			backoff *= 2
		}
	}
}

// ResetLog atomically replaces the log with an empty segment at the given
// checkpoint epoch: how a completed checkpoint truncates the log. The
// caller must have drained the manager (Serialize + Flush) first; pending
// data makes truncation unsafe and is rejected.
func (m *Manager) ResetLog(epoch uint64) error {
	m.serMu.Lock()
	defer m.serMu.Unlock()
	m.flushMu.Lock()
	defer m.flushMu.Unlock()
	m.mu.Lock()
	pending := len(m.queue) > 0 || len(m.current) > 0 || len(m.sealed) > 0
	m.mu.Unlock()
	if pending {
		return fmt.Errorf("wal: ResetLog with unflushed data (drain with Serialize+Flush first)")
	}
	if err := m.dev.Reset(appendSegmentHeader(nil, epoch)); err != nil {
		return fmt.Errorf("wal: truncating log: %w", err)
	}
	m.epoch = epoch
	m.headerWritten = true
	return nil
}

// Durable returns a copy of the flushed (crash-safe) log image: a segment
// header plus record frames, the input to recovery. It costs the whole log;
// a reader that follows the log uses DurableSince.
func (m *Manager) Durable() []byte {
	return m.dev.Contents()
}

// DurableSince returns the current segment epoch and, appended to dst, the
// durable bytes that a follower holding the first off bytes of segment epoch
// has not seen: the image from off on while epoch is still current, the
// whole new segment once a checkpoint has truncated the one the follower
// knew. Epoch and bytes come from one read under flushMu, so no flush or
// truncation can fall between them. The bytes are the device's own chunks
// (hw.BlockDevice.Views), read-only and never rewritten: the read copies
// nothing, and costs the chunks it returns, not the log.
func (m *Manager) DurableSince(dst [][]byte, epoch uint64, off int) (cur uint64, unseen [][]byte) {
	m.flushMu.Lock()
	defer m.flushMu.Unlock()
	if epoch != m.epoch {
		off = 0
	}
	return m.epoch, m.dev.Views(dst, off)
}

// PendingBytes returns how much serialized log data awaits flushing.
func (m *Manager) PendingBytes() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(m.current)
	for _, b := range m.sealed {
		n += len(b)
	}
	return n
}

// Stats reports lifetime counters.
func (m *Manager) Stats() (records, bytes, flushedBytes, flushedBuffers, flushes uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.serializedRecords, m.serializedBytes, m.flushedBytes, m.flushedBuffers, m.flushes
}

// FaultStats reports the durability fault counters: transient flush retries
// absorbed and oversized records rejected at Enqueue.
func (m *Manager) FaultStats() (retries, rejected uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.flushRetries, m.rejected
}
