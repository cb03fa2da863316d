package storage

import (
	"errors"
	"sync"

	"mb2/internal/catalog"
	"mb2/internal/hw"
)

// UncommittedBase marks transaction-private version timestamps: a version
// whose Begin is >= UncommittedBase was written by transaction
// Begin-UncommittedBase and is invisible to everyone else until commit.
const UncommittedBase = uint64(1) << 62

// ErrWriteConflict is returned when a write-write conflict is detected
// (first-updater-wins, as in Hekaton-style in-memory MVCC).
var ErrWriteConflict = errors.New("storage: write-write conflict")

// ErrRowNotVisible is returned when no committed version of a row is visible
// at the reader's snapshot.
var ErrRowNotVisible = errors.New("storage: row not visible")

// RowID names a tuple slot within a table.
type RowID int

// Version is one entry in a row's newest-first version chain. Data == nil is
// a delete tombstone.
type Version struct {
	Begin uint64 // commit timestamp, or UncommittedBase+txnID while in-flight
	Data  Tuple
	Next  *Version
}

type slot struct {
	mu   sync.Mutex
	head *Version
}

// Table is an in-memory MVCC table: a slot array of version chains,
// optionally hash-partitioned through a routing directory (partition.go).
type Table struct {
	Meta *catalog.TableMeta

	mu      sync.RWMutex
	slots   []*slot
	parts   int     // hash-partition count; <= 1 means unpartitioned
	partKey []int   // partition-key column indexes
	partOf  []int32 // per-slot partition assignment, aligned with slots

	// partScanMu excludes repartitioning (writer) from in-flight partition
	// scans (readers); plain scans and point operations never take it.
	partScanMu sync.RWMutex
}

// NewTable creates an empty table for the catalog entry.
func NewTable(meta *catalog.TableMeta) *Table {
	return &Table{Meta: meta}
}

// NumRows returns the number of slots (including deleted rows until GC
// compaction is out of scope; tombstoned slots still occupy a slot).
func (t *Table) NumRows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.slots)
}

// HeapBytes returns the modeled resident size of the table.
func (t *Table) HeapBytes() float64 {
	return float64(t.NumRows()) * float64(t.Meta.Schema.TupleBytes())
}

func visible(v *Version, txnID, readTS uint64) bool {
	if v.Begin >= UncommittedBase {
		return v.Begin == UncommittedBase+txnID
	}
	return v.Begin <= readTS
}

// Insert appends a new row owned by txnID and returns its RowID. The version
// stays invisible to other transactions until CommitWrite stamps it.
func (t *Table) Insert(th *hw.Thread, txnID uint64, data Tuple) RowID {
	v := &Version{Begin: UncommittedBase + txnID, Data: data}
	t.mu.Lock()
	t.slots = append(t.slots, &slot{head: v})
	t.partOf = append(t.partOf, int32(PartitionIndex(data, t.partKey, t.parts)))
	row := RowID(len(t.slots) - 1)
	t.mu.Unlock()
	if th != nil {
		th.Alloc(float64(data.Bytes()) + 32)
		th.RandWrite(1, t.HeapBytes())
	}
	return row
}

// AppendCommitted appends a row that is already committed at the given
// timestamp, bypassing transaction bookkeeping. Loaders use it with ts 0 so
// every snapshot sees the data.
func (t *Table) AppendCommitted(data Tuple, ts uint64) RowID {
	v := &Version{Begin: ts, Data: data}
	t.mu.Lock()
	t.slots = append(t.slots, &slot{head: v})
	t.partOf = append(t.partOf, int32(PartitionIndex(data, t.partKey, t.parts)))
	row := RowID(len(t.slots) - 1)
	t.mu.Unlock()
	return row
}

// ReplayWrite installs a committed version at the given row during WAL
// replay, growing the slot array as needed so recovered rows land at their
// original identities. data == nil replays a delete. Successive writes at
// the same timestamp (one transaction rewriting its own row) collapse into
// one version, matching the live write path's in-place overwrite.
func (t *Table) ReplayWrite(row RowID, data Tuple, ts uint64) {
	t.mu.Lock()
	for int(row) >= len(t.slots) {
		t.slots = append(t.slots, &slot{})
		t.partOf = append(t.partOf, partUnassigned)
	}
	if data != nil && t.partOf[row] == partUnassigned {
		// First materialized tuple for a replay placeholder routes the row.
		t.partOf[row] = int32(PartitionIndex(data, t.partKey, t.parts))
	}
	s := t.slots[row]
	t.mu.Unlock()
	s.mu.Lock()
	if s.head != nil && s.head.Begin == ts {
		s.head.Data = data
	} else {
		s.head = &Version{Begin: ts, Data: data, Next: s.head}
	}
	s.mu.Unlock()
}

func (t *Table) slotAt(row RowID) *slot {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if int(row) < 0 || int(row) >= len(t.slots) {
		return nil
	}
	return t.slots[row]
}

// Read returns the tuple version of row visible at (txnID, readTS).
func (t *Table) Read(th *hw.Thread, row RowID, txnID, readTS uint64) (Tuple, error) {
	s := t.slotAt(row)
	if s == nil {
		return nil, ErrRowNotVisible
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	depth := 0.0
	for v := s.head; v != nil; v = v.Next {
		depth++
		if visible(v, txnID, readTS) {
			if th != nil {
				th.RandRead(1+depth, t.HeapBytes(), 1)
			}
			if v.Data == nil {
				return nil, ErrRowNotVisible
			}
			return v.Data, nil
		}
	}
	if th != nil {
		th.RandRead(1+depth, t.HeapBytes(), 1)
	}
	return nil, ErrRowNotVisible
}

// write installs a new head version for the row, enforcing
// first-updater-wins. data == nil deletes the row.
func (t *Table) write(th *hw.Thread, row RowID, txnID, readTS uint64, data Tuple) error {
	s := t.slotAt(row)
	if s == nil {
		return ErrRowNotVisible
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if th != nil {
		th.Latch(1)
	}
	head := s.head
	if head != nil {
		if head.Begin >= UncommittedBase && head.Begin != UncommittedBase+txnID {
			return ErrWriteConflict
		}
		if head.Begin < UncommittedBase && head.Begin > readTS {
			return ErrWriteConflict
		}
	}
	if head != nil && head.Begin == UncommittedBase+txnID {
		// Same transaction overwrites its own in-flight version in place.
		head.Data = data
	} else {
		s.head = &Version{Begin: UncommittedBase + txnID, Data: data, Next: head}
	}
	if th != nil {
		if data != nil {
			th.Alloc(float64(data.Bytes()) + 32)
		}
		th.RandWrite(1, t.HeapBytes())
	}
	return nil
}

// Update replaces the row's tuple within txnID.
func (t *Table) Update(th *hw.Thread, row RowID, txnID, readTS uint64, data Tuple) error {
	return t.write(th, row, txnID, readTS, data)
}

// Delete tombstones the row within txnID.
func (t *Table) Delete(th *hw.Thread, row RowID, txnID, readTS uint64) error {
	return t.write(th, row, txnID, readTS, nil)
}

// CommitWrite stamps the row's in-flight version with the commit timestamp.
func (t *Table) CommitWrite(row RowID, txnID, commitTS uint64) {
	s := t.slotAt(row)
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.head != nil && s.head.Begin == UncommittedBase+txnID {
		s.head.Begin = commitTS
	}
}

// AbortWrite unlinks the row's in-flight version.
func (t *Table) AbortWrite(row RowID, txnID uint64) {
	s := t.slotAt(row)
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.head != nil && s.head.Begin == UncommittedBase+txnID {
		s.head = s.head.Next
	}
}

// ScanRow is one visible row handed out by ScanBatch: the slot identity and
// a reference to the visible version's tuple. The tuple is NOT copied; it is
// the shared immutable version payload, valid for as long as the version is
// reachable (readers must treat it as read-only).
type ScanRow struct {
	Row  RowID
	Data Tuple
}

// walk is the one scan loop; every scan form is a wrapper that takes the
// snapshot it walks. It visits the slots dir routes to partition p (a nil
// dir selects every slot) in RowID order, under ScanBatch's buffer contract,
// and charges th a streaming read of the slots it visited.
func (t *Table) walk(th *hw.Thread, slots []*slot, dir []int32, p int, txnID, readTS uint64, buf []ScanRow, fn func([]ScanRow) bool) {
	if cap(buf) == 0 {
		buf = make([]ScanRow, 0, 256)
	}
	buf = buf[:0]
	scanned := 0.0
	stopped := false
	for i, s := range slots {
		if dir != nil && (i >= len(dir) || dir[i] != int32(p)) {
			continue
		}
		s.mu.Lock()
		var data Tuple
		for v := s.head; v != nil; v = v.Next {
			if visible(v, txnID, readTS) {
				data = v.Data
				break
			}
		}
		s.mu.Unlock()
		scanned++
		if data == nil {
			continue
		}
		buf = append(buf, ScanRow{Row: RowID(i), Data: data})
		if len(buf) == cap(buf) {
			if !fn(buf) {
				stopped = true
				break
			}
			buf = buf[:0]
		}
	}
	if !stopped && len(buf) > 0 {
		fn(buf)
	}
	if th != nil && scanned > 0 {
		th.SeqRead(scanned, float64(t.Meta.Schema.TupleBytes()))
	}
}

// perRow adapts a per-row callback to the batch form walk flushes through.
func perRow(fn func(RowID, Tuple) bool) func([]ScanRow) bool {
	return func(rows []ScanRow) bool {
		for _, r := range rows {
			if !fn(r.Row, r.Data) {
				return false
			}
		}
		return true
	}
}

// Scan calls fn for every row version visible at (txnID, readTS), in RowID
// order. The scan charges a streaming read of the touched tuples; it reads a
// buffer ahead of fn, so one that fn stops is charged for the slots read.
func (t *Table) Scan(th *hw.Thread, txnID, readTS uint64, fn func(RowID, Tuple) bool) {
	t.ScanBatch(th, txnID, readTS, nil, perRow(fn))
}

// ScanBatch is the read-only pipeline variant of Scan: it fills the
// caller-provided buffer with visible rows and flushes it through fn each
// time it runs full (and once at the end), reusing the buffer across
// flushes. Compared with Scan it avoids per-row callback dispatch and lets
// fused execution pipelines drive the whole scan from one pooled buffer
// with zero per-row allocation or tuple copying. fn must not retain the
// slice (it is reused), though it may retain the Tuple references inside.
// Charges and visibility semantics match Scan exactly.
func (t *Table) ScanBatch(th *hw.Thread, txnID, readTS uint64, buf []ScanRow, fn func([]ScanRow) bool) {
	t.mu.RLock()
	slots := t.slots
	t.mu.RUnlock()
	t.walk(th, slots, nil, 0, txnID, readTS, buf, fn)
}

// Vacuum prunes version chains: every version strictly older than the newest
// version visible at oldestActiveTS is unreachable and is unlinked. It
// returns the number of versions pruned (the GC OU's work volume).
func (t *Table) Vacuum(th *hw.Thread, oldestActiveTS uint64) int {
	t.mu.RLock()
	slots := t.slots
	t.mu.RUnlock()
	pruned := 0
	width := float64(t.Meta.Schema.TupleBytes())
	for _, s := range slots {
		s.mu.Lock()
		for v := s.head; v != nil; v = v.Next {
			if v.Begin < UncommittedBase && v.Begin <= oldestActiveTS {
				// v is the newest version any active or future reader can
				// see; everything behind it is garbage.
				for g := v.Next; g != nil; g = g.Next {
					pruned++
				}
				v.Next = nil
				break
			}
		}
		s.mu.Unlock()
	}
	if th != nil {
		th.SeqRead(float64(len(slots)), 16)
		if pruned > 0 {
			th.Free(float64(pruned) * (width + 32))
			th.Compute(float64(pruned) * 20)
		}
	}
	return pruned
}

// VersionCount reports the total number of versions across all chains
// (used by tests and the GC runner to size work).
func (t *Table) VersionCount() int {
	t.mu.RLock()
	slots := t.slots
	t.mu.RUnlock()
	n := 0
	for _, s := range slots {
		s.mu.Lock()
		for v := s.head; v != nil; v = v.Next {
			n++
		}
		s.mu.Unlock()
	}
	return n
}

// MaxTS is the largest committed timestamp (useful as a read-everything
// snapshot in loaders and tests).
const MaxTS = UncommittedBase - 1
