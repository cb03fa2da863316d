package session

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"mb2/internal/exec"
	"mb2/internal/hw"
	"mb2/internal/plan"
	"mb2/internal/sql"
)

// Sentinel errors of the session lifecycle.
var (
	// ErrKilled is returned by executions aborted by a process-list kill
	// (wrapped around the kill cause when one was given).
	ErrKilled = errors.New("session: killed")
	// ErrClosed is returned by operations on a closed session.
	ErrClosed = errors.New("session: closed")
	// ErrBusy is returned when a statement is submitted while another is
	// still running on the same session.
	ErrBusy = errors.New("session: statement already running")
	// ErrAdmission is returned by Registry.Open when the process list is
	// at its configured capacity.
	ErrAdmission = errors.New("session: too many sessions")
)

// State is a session's lifecycle state as the process list reports it.
type State int

const (
	// Idle: admitted, no statement running.
	Idle State = iota
	// Active: a statement is executing right now.
	Active
	// Killed: cancelled via the process list; every further execution
	// fails with ErrKilled, but the observation buffer stays drainable.
	Killed
	// Closed: released; the ID has left the process list.
	Closed
)

// String returns the process-list spelling of the state.
func (s State) String() string {
	switch s {
	case Idle:
		return "idle"
	case Active:
		return "active"
	case Killed:
		return "killed"
	case Closed:
		return "closed"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Session is one client's execution context: the unit the process list
// admits, lists, and kills. See the package comment for the concurrency
// contract (one statement at a time; kill/list/drain may race freely).
type Session struct {
	// ID is the process-list identifier, assigned in admission order.
	ID uint64

	reg    *Registry
	ctx    context.Context
	cancel context.CancelCauseFunc
	ec     *exec.Ctx
	stats  *Stats

	mu        sync.Mutex
	state     State
	statement string // currently-running statement, for the process list
	running   bool   // a statement holds the worker (a kill leaves it running)
	queries   uint64 // completed statements
	failed    uint64 // failed or killed statements
	prepared  map[string]*Prepared

	// cache is the plan cache every SQL statement executes from. It belongs
	// to whichever goroutine holds the running statement.
	cache planCache
}

// ExecCtx exposes the session's execution context. It is owned by the
// session's worker goroutine; other goroutines must not touch it. A plan run
// on it with exec.Execute between two statements returns a result that owns
// its memory: the session's release never reaches it.
func (s *Session) ExecCtx() *exec.Ctx { return s.ec }

// interrupted is the exec.Ctx.Interrupt hook: polled at every operator
// boundary, it surfaces a kill as ErrKilled wrapping the cause.
func (s *Session) interrupted() error {
	select {
	case <-s.ctx.Done():
		cause := context.Cause(s.ctx)
		if cause == nil || errors.Is(cause, ErrKilled) || errors.Is(cause, ErrClosed) {
			return ErrKilled
		}
		return fmt.Errorf("%w: %w", ErrKilled, cause)
	default:
		return nil
	}
}

// beginStatement admits one statement onto the session worker. On success
// the statement holds the registry's checkpoint-quiesce gate (read side)
// until endStatement: a quiescing checkpoint waits for it to finish — and
// for its auto-commit transaction to commit or abort — before snapshotting,
// even if the session is killed mid-statement.
func (s *Session) beginStatement(stmt string) error {
	s.mu.Lock()
	switch s.state {
	case Killed:
		s.mu.Unlock()
		return ErrKilled
	case Closed:
		s.mu.Unlock()
		return ErrClosed
	case Active:
		s.mu.Unlock()
		return ErrBusy
	}
	s.state = Active
	s.statement = stmt
	s.running = true
	s.mu.Unlock()
	s.reg.beginExec()
	return nil
}

// endStatement retires the running statement and releases the checkpoint
// gate. A kill that landed while the statement ran leaves the state Killed.
func (s *Session) endStatement(err error) {
	s.reg.endExec()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err == nil {
		s.queries++
	} else {
		s.failed++
	}
	s.statement = ""
	s.running = false
	if s.state == Active {
		s.state = Idle
	}
}

// ExecPlan executes a pre-built physical plan under the session: the
// embedded front ends' path (the selfdrive loop constructs plans
// directly). The template name keys the observation stream; completed
// queries are observed exactly once, killed or failed ones not at all.
// A DML plan is auto-committed unless the caller opened a transaction on
// the session's execution context. The fingerprint argument is not read.
// The result is valid until the session's next statement, Release or Close.
func (s *Session) ExecPlan(template string, _ uint64, node plan.Node) (*exec.Batch, hw.Metrics, error) {
	if err := s.beginStatement(template); err != nil {
		return nil, hw.Metrics{}, err
	}
	b, iso, err := s.run(template, ran{node: node})
	s.endStatement(err)
	return b, iso, err
}

// ran is the plan a statement executed, as the observation buffer may keep
// it: node itself, or — when node is tmpl's bound tree, which tmpl's next
// Bind rewrites in place — the tree tmpl.Snapshot(lits) builds afresh.
type ran struct {
	node plan.Node
	tmpl *sql.Template
	lits []sql.Literal
}

// keep returns the immutable plan the observation buffer keeps for r.
func (r ran) keep() plan.Node {
	if r.tmpl == nil {
		return r.node
	}
	return r.tmpl.Snapshot(r.lits)
}

// run executes a plan inside the statement the caller began, as the
// execution context's next statement: the previous result is released
// first (exec.Ctx.Statement). A DML plan
// gets an auto-commit transaction when the session has none open,
// mirroring a server's auto-commit semantics. The metrics bracket the
// whole plan — every operator OU plus tracker overhead — measured on the
// session's thread in isolation; contention across sessions is charged in
// the control loop's interval reduction. Observation is all-or-nothing: a
// statement is recorded once its outcome is decided and only if it
// succeeded, so a query that fails — a process-list kill included — leaves
// the buffer untouched.
func (s *Session) run(template string, r ran) (*exec.Batch, hw.Metrics, error) {
	auto := s.ec.Txn == nil && isDML(r.node)
	if auto {
		s.ec.Begin()
	}
	before := s.ec.Thread().Counters()
	b, err := s.ec.Statement(r.node)
	iso := s.ec.Thread().Since(before)
	if auto {
		if err != nil {
			_ = s.ec.Abort()
		} else if cerr := s.ec.Commit(); cerr != nil {
			err = cerr
		}
		// Commits are acknowledged before they are durable: a pass this
		// count triggers makes them so. A failed pass does not fail the
		// statement, whose outcome is decided; it leaves the instance
		// non-durable (Maintainer.Pass), and only the passes
		// Registry.Maintain runs report their error.
		_ = s.reg.maint.Finished()
	}
	if err != nil {
		return nil, iso, err
	}
	s.stats.record(template, r, iso)
	return b, iso, nil
}

// isDML reports whether a plan mutates the database.
func isDML(n plan.Node) bool {
	switch n.(type) {
	case *plan.InsertNode, *plan.UpdateNode, *plan.DeleteNode:
		return true
	}
	return false
}

// ExecSQL executes one SQL statement from the session's plan cache (see
// execEntry). DDL runs against the engine directly; DML is auto-committed
// when no transaction is open. The statement's template key, not its
// text, names the observation, so ad-hoc traffic forecasts per template
// however many distinct literals it carries. The result is valid until the
// session's next statement, Release or Close.
func (s *Session) ExecSQL(query string) (*exec.Batch, hw.Metrics, error) {
	if err := s.beginStatement(query); err != nil {
		return nil, hw.Metrics{}, err
	}
	e, lits := s.cache.lookup(query)
	b, iso, err := s.execEntry(e.key, e, lits, query)
	s.cache.keep(e)
	s.endStatement(err)
	return b, iso, err
}

// fail charges a statement the session refused before it began to the
// process-list failed counter.
func (s *Session) fail(err error) error {
	s.mu.Lock()
	s.failed++
	s.mu.Unlock()
	return err
}

// Kill cancels the session: the running statement aborts at its next
// operator boundary and every later execution fails with ErrKilled. The
// observation buffer is left intact for its exactly-once drain.
func (s *Session) Kill(cause error) {
	s.mu.Lock()
	if s.state == Closed {
		s.mu.Unlock()
		return
	}
	s.state = Killed
	s.mu.Unlock()
	if cause == nil {
		cause = ErrKilled
	}
	s.cancel(cause)
}

// Release gives the memory of the session's last result back to exec now —
// its row arrays, its Batch and the arena region its statement carved — so
// an idle session pins none of it. The result must not be read afterwards.
// The session's next statement and Close release it too. Like the Exec
// methods, it is called from the session's worker goroutine.
func (s *Session) Release() { s.ec.ReleaseStatement() }

// Close releases the session and its last result, and removes it from the
// process list. The caller keeps the Stats handle: observations buffered at
// close remain drainable exactly once.
func (s *Session) Close() {
	s.mu.Lock()
	if s.state == Closed {
		s.mu.Unlock()
		return
	}
	s.state = Closed
	idle := !s.running
	s.mu.Unlock()
	s.cancel(ErrClosed)
	if idle {
		// No statement can begin on a closed session; one still running
		// owns the execution context, and its memory goes with the session.
		s.Release()
	}
	s.reg.remove(s.ID)
}

// Info snapshots the session for the process list.
func (s *Session) Info() ProcessInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ProcessInfo{
		ID:        s.ID,
		State:     s.state,
		Statement: s.statement,
		Queries:   s.queries,
		Failed:    s.failed,
	}
}
