package session

import (
	"context"
	"sort"
	"sync"

	"mb2/internal/engine"
	"mb2/internal/exec"
	"mb2/internal/hw"
	"mb2/internal/metrics"
)

// ProcessInfo is one process-list row.
type ProcessInfo struct {
	ID        uint64
	State     State
	Statement string
	Queries   uint64
	Failed    uint64
}

// Options configures one session at admission.
type Options struct {
	// Contenders is the latch-contention scale the execution context
	// charges with (the number of threads concurrently mutating shared
	// structures). Zero means "the live session count at admission",
	// which is what a wire server wants; deterministic harnesses pass
	// their fixed worker count explicitly.
	Contenders float64
}

// Registry is the admission controller and process list: every live
// session, whatever front end opened it, is visible (and killable) here,
// and the self-driving loop drains its interval observations from here.
type Registry struct {
	db *engine.DB
	// MaxSessions caps concurrent sessions; Open fails with ErrAdmission
	// beyond it. Zero or negative means unlimited.
	max int

	mu       sync.Mutex
	next     uint64
	sessions map[uint64]*Session
	admitted uint64
	rejected uint64
	killed   uint64
	peak     int

	// gate is the checkpoint quiesce barrier: every statement holds it in
	// read mode for its whole execution (including the auto-commit
	// commit/abort), and Checkpoint takes it in write mode. That turns the
	// engine's check-then-act quiesce ("error if any transaction is
	// active") into a real barrier: once Checkpoint holds the gate, no
	// registry statement is mid-flight and none can start, so the snapshot
	// cannot race an in-flight write — even one whose session is killed
	// while the checkpoint is quiescing (the kill aborts the statement at
	// an operator boundary, the abort retires the transaction, and only
	// then is the read side released).
	gate sync.RWMutex

	checkpoints uint64 // successful Checkpoint calls

	// maint serializes, flushes and collects for every session, a pass per
	// maintainEvery auto-commit DML statements.
	maint *exec.Maintainer
}

// maintainEvery is sized against the wire benchmark's own cadence: a flush
// per ~2 000 statements, GC per 20 000.
const maintainEvery = 4096

// NewRegistry returns a process list over db admitting at most
// maxSessions concurrent sessions (<= 0 for unlimited).
func NewRegistry(db *engine.DB, maxSessions int) *Registry {
	return &Registry{db: db, max: maxSessions, sessions: make(map[uint64]*Session),
		maint: exec.NewMaintainer(db, maintainEvery, nil)}
}

// DB returns the engine the registry's sessions execute against.
func (r *Registry) DB() *engine.DB { return r.db }

// Open admits a new session, sampling the engine's live knobs for its
// execution context (mode, scan DOP). IDs ascend in admission order —
// the order observation merges use.
func (r *Registry) Open(opts Options) (*Session, error) {
	r.mu.Lock()
	if r.max > 0 && len(r.sessions) >= r.max {
		r.rejected++
		r.mu.Unlock()
		return nil, ErrAdmission
	}
	r.next++
	id := r.next
	r.admitted++
	contenders := opts.Contenders
	if contenders <= 0 {
		contenders = float64(len(r.sessions) + 1)
	}
	r.mu.Unlock()

	knobs := r.db.Knobs()
	dop := knobs.ScanDOP
	if dop < 1 {
		dop = 1
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	s := &Session{
		ID:     id,
		reg:    r,
		ctx:    ctx,
		cancel: cancel,
		stats:  newStats(),
	}
	s.ec = &exec.Ctx{
		DB:         r.db,
		Tracker:    metrics.NewTracker(nil, hw.NewThread(r.db.Machine.CPU)),
		Mode:       knobs.ExecutionMode,
		Contenders: contenders,
		DOP:        dop,
		Interrupt:  s.interrupted,
	}

	r.mu.Lock()
	// Re-check the cap: admissions racing between the two critical
	// sections may not exceed it.
	if r.max > 0 && len(r.sessions) >= r.max {
		r.rejected++
		r.admitted--
		r.mu.Unlock()
		cancel(ErrAdmission)
		return nil, ErrAdmission
	}
	r.sessions[id] = s
	if len(r.sessions) > r.peak {
		r.peak = len(r.sessions)
	}
	r.mu.Unlock()
	return s, nil
}

// remove drops a closed session from the list (called by Session.Close).
func (r *Registry) remove(id uint64) {
	r.mu.Lock()
	delete(r.sessions, id)
	r.mu.Unlock()
}

// Len returns the number of live sessions.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions)
}

// Peak returns the highest concurrent-session count ever reached.
func (r *Registry) Peak() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.peak
}

// Counters returns cumulative admission-control statistics: sessions
// admitted, admissions rejected at capacity, and kills issued.
func (r *Registry) Counters() (admitted, rejected, killed uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.admitted, r.rejected, r.killed
}

// live snapshots the live sessions in ascending ID order.
func (r *Registry) live() []*Session {
	r.mu.Lock()
	out := make([]*Session, 0, len(r.sessions))
	for _, s := range r.sessions {
		out = append(out, s)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// List returns the process list: one row per live session, ascending ID.
func (r *Registry) List() []ProcessInfo {
	live := r.live()
	out := make([]ProcessInfo, len(live))
	for i, s := range live {
		out[i] = s.Info()
	}
	return out
}

// Kill cancels a live session by ID (the process-list kill). It reports
// whether the ID was live; the session stays listed — state Killed —
// until whoever owns it closes it, exactly like a killed backend
// lingering in a real process list until the client disconnects.
func (r *Registry) Kill(id uint64, cause error) bool {
	r.mu.Lock()
	s := r.sessions[id]
	if s != nil {
		r.killed++
	}
	r.mu.Unlock()
	if s == nil {
		return false
	}
	s.Kill(cause)
	return true
}

// beginExec blocks the calling statement while a checkpoint is quiescing
// and otherwise admits it; endExec retires it. Statements hold the gate in
// read mode for their entire execution (session.beginStatement pairs the
// two around every statement path).
func (r *Registry) beginExec() { r.gate.RLock() }
func (r *Registry) endExec()   { r.gate.RUnlock() }

// Maintain runs one maintenance pass now, holding the checkpoint gate as a
// statement does — how an idle server makes its last commits durable — and
// returns the maintainer's counters.
func (r *Registry) Maintain() (exec.MaintainerStats, error) {
	r.beginExec()
	defer r.endExec()
	err := r.maint.Pass()
	return r.maint.Stats(), err
}

// Checkpoint quiesces the process list and checkpoints the engine: it
// blocks new statements, waits for every in-flight statement — including
// ones being killed right now — to retire its transaction, and only then
// snapshots. Sessions holding an explicit transaction open across
// statements still fail the engine's active-transaction check, which comes
// back as a clean error with every counter and the checkpoint epoch
// untouched. Snapshot, encode, and device writes are charged to th.
func (r *Registry) Checkpoint(th *hw.Thread) (engine.CheckpointStats, error) {
	r.gate.Lock()
	defer r.gate.Unlock()
	st, err := r.db.Checkpoint(th)
	if err == nil {
		r.mu.Lock()
		r.checkpoints++
		r.mu.Unlock()
	}
	return st, err
}

// Checkpoints returns how many registry checkpoints have succeeded.
func (r *Registry) Checkpoints() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.checkpoints
}

// DrainObservations takes every live session's buffered observations and
// merges them in ascending session-ID order — the deterministic
// serial-order reduction. This is the control loop's per-interval pull:
// one call returns everything the process list saw since the last one.
func (r *Registry) DrainObservations() Observation {
	merged := NewObservation()
	for _, s := range r.live() {
		merged.Merge(s.stats.Drain())
	}
	return merged
}
