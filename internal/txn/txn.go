// Package txn implements the MVCC transaction manager: timestamp
// allocation, snapshot tracking, commit/abort, and the logical-contention
// accounting that feeds the transaction begin/commit OUs (Table 1).
package txn

import (
	"errors"
	"sync"

	"mb2/internal/hw"
	"mb2/internal/storage"
)

// ErrTxnFinished is returned for operations on a committed/aborted txn.
var ErrTxnFinished = errors.New("txn: transaction already finished")

// State is a transaction's lifecycle state.
type State int

// Transaction states.
const (
	Active State = iota
	Committed
	Aborted
)

// Write is one row write of a transaction: the version it installed (New,
// nil for a delete) over the before-image it replaced (Old, nil for an
// insert). The before-image is what lets commit and abort maintain indexes.
type Write struct {
	Table    *storage.Table
	Row      storage.RowID
	Old, New storage.Tuple
}

// Txn is one transaction. It is owned by a single worker thread.
type Txn struct {
	ID     uint64
	ReadTS uint64

	mgr    *Manager
	state  State
	writes []Write
}

// Manager hands out timestamps and tracks active transactions.
//
// Commit timestamps are allocated and published in two steps: a committing
// transaction first reserves the next timestamp (allocTS), stamps every
// written version with it, and only then publishes it (commitTS). Snapshots
// read the published timestamp, so a reader can never observe a partially
// stamped commit — the lost-update race the concurrency harness
// (internal/check) originally caught. Publication is ordered: a timestamp
// becomes visible only once every smaller timestamp has been published.
type Manager struct {
	mu        sync.Mutex
	commitTS  uint64 // last *published* commit timestamp
	allocTS   uint64 // last *allocated* commit timestamp (>= commitTS)
	pending   map[uint64]struct{}
	nextTxnID uint64
	active    map[uint64]uint64 // txnID -> readTS

	begun     uint64
	committed uint64
	aborted   uint64
}

// NewManager returns a fresh transaction manager. Timestamp 0 is reserved
// for pre-loaded data, so a snapshot at 0 already sees bulk-loaded rows.
func NewManager() *Manager {
	return &Manager{
		nextTxnID: 1,
		active:    make(map[uint64]uint64),
		pending:   make(map[uint64]struct{}),
	}
}

// Begin starts a transaction, charging the begin OU's bookkeeping to th.
// The contention charge grows with the number of already-active
// transactions, mirroring the timestamp-allocation and active-set latches
// the paper's contending txn OUs capture.
func (m *Manager) Begin(th *hw.Thread) *Txn {
	m.mu.Lock()
	id := m.nextTxnID
	m.nextTxnID++
	readTS := m.commitTS
	m.active[id] = readTS
	concurrent := len(m.active)
	m.begun++
	m.mu.Unlock()
	if th != nil {
		th.Latch(float64(concurrent))
		th.Compute(120)
		th.Alloc(96)
	}
	return &Txn{ID: id, ReadTS: readTS, mgr: m}
}

// RecordWrite registers a write for commit/abort processing and WAL
// serialization. The storage layer has already installed the version.
// engine's write path (engine/write.go) is its one non-test caller.
func (t *Txn) RecordWrite(w Write) {
	t.writes = append(t.writes, w)
}

// Writes returns the transaction's write records in the order they were
// made. The slice is the transaction's own; callers must not modify it.
func (t *Txn) Writes() []Write { return t.writes }

// Commit assigns a commit timestamp, stamps every written version, and
// retires the transaction. It returns the commit timestamp.
//
// The timestamp is only published (made visible to new snapshots) after
// every written version carries it, and publication preserves timestamp
// order, so snapshot reads never see a half-committed transaction.
func (t *Txn) Commit(th *hw.Thread) (uint64, error) {
	if t.state != Active {
		return 0, ErrTxnFinished
	}
	m := t.mgr
	m.mu.Lock()
	m.allocTS++
	ts := m.allocTS
	concurrent := len(m.active)
	m.mu.Unlock()

	for _, w := range t.writes {
		w.Table.CommitWrite(w.Row, t.ID, ts)
	}

	m.mu.Lock()
	delete(m.active, t.ID)
	m.pending[ts] = struct{}{}
	for {
		if _, ok := m.pending[m.commitTS+1]; !ok {
			break
		}
		m.commitTS++
		delete(m.pending, m.commitTS)
	}
	m.committed++
	m.mu.Unlock()
	t.state = Committed
	if th != nil {
		th.Latch(float64(concurrent))
		th.Compute(150 + 40*float64(len(t.writes)))
		th.Free(96)
	}
	return ts, nil
}

// Abort rolls back every installed version and retires the transaction.
func (t *Txn) Abort(th *hw.Thread) error {
	if t.state != Active {
		return ErrTxnFinished
	}
	m := t.mgr
	m.mu.Lock()
	delete(m.active, t.ID)
	concurrent := len(m.active) + 1
	m.aborted++
	m.mu.Unlock()

	for i := len(t.writes) - 1; i >= 0; i-- {
		w := t.writes[i]
		w.Table.AbortWrite(w.Row, t.ID)
	}
	t.state = Aborted
	if th != nil {
		th.Latch(float64(concurrent))
		th.Compute(150 + 60*float64(len(t.writes)))
		th.Free(96)
	}
	return nil
}

// OldestActiveTS returns the snapshot below which all versions are stable:
// the read timestamp of the oldest active transaction, or the latest commit
// timestamp when the system is idle. GC prunes up to this point.
func (m *Manager) OldestActiveTS() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	oldest := m.commitTS
	for _, ts := range m.active {
		if ts < oldest {
			oldest = ts
		}
	}
	return oldest
}

// AdvanceTo raises the commit timestamp to at least ts (used by recovery so
// replayed versions become visible to new snapshots).
func (m *Manager) AdvanceTo(ts uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ts > m.commitTS {
		m.commitTS = ts
	}
	if ts > m.allocTS {
		m.allocTS = ts
	}
}

// LastAllocatedTS returns the most recently allocated commit timestamp. At
// quiesce it equals LastCommitTS; a gap means a commit is mid-publication.
// The concurrency harness checks this invariant between phases.
func (m *Manager) LastAllocatedTS() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.allocTS
}

// LastCommitTS returns the most recent commit timestamp.
func (m *Manager) LastCommitTS() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.commitTS
}

// ActiveCount returns the number of in-flight transactions.
func (m *Manager) ActiveCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.active)
}

// Stats reports lifetime counters (begun, committed, aborted).
func (m *Manager) Stats() (begun, committed, aborted uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.begun, m.committed, m.aborted
}
