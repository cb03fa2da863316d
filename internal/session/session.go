package session

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"mb2/internal/exec"
	"mb2/internal/hw"
	"mb2/internal/plan"
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
	queries   uint64 // completed statements
	failed    uint64 // failed or killed statements
	prepared  map[string]*Prepared

	// cache is the plan cache every SQL statement executes from. It belongs
	// to whichever goroutine holds the running statement.
	cache planCache
}

// Context returns the session context; it is cancelled by Kill and Close.
func (s *Session) Context() context.Context { return s.ctx }

// Stats returns the session's private observation buffer.
func (s *Session) Stats() *Stats { return s.stats }

// ExecCtx exposes the session's execution context. It is owned by the
// session's worker goroutine; other goroutines must not touch it.
func (s *Session) ExecCtx() *exec.Ctx { return s.ec }

// State returns the session's current lifecycle state.
func (s *Session) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

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
	if s.state == Active {
		s.state = Idle
	}
}

// ExecPlan executes a pre-built physical plan under the session: the
// embedded front ends' path (the selfdrive loop constructs plans
// directly). The template name keys the observation stream; completed
// queries are observed exactly once, killed or failed ones not at all.
// A DML plan is auto-committed unless the caller opened a transaction on
// the session's execution context.
func (s *Session) ExecPlan(template string, fingerprint uint64, node plan.Node) (*exec.Batch, hw.Metrics, error) {
	if err := s.beginStatement(template); err != nil {
		return nil, hw.Metrics{}, err
	}
	b, iso, err := s.run(template, fingerprint, node)
	s.endStatement(err)
	return b, iso, err
}

// run executes a plan inside the statement the caller began. A DML plan
// gets an auto-commit transaction when the session has none open,
// mirroring a server's auto-commit semantics.
func (s *Session) run(template string, fingerprint uint64, node plan.Node) (*exec.Batch, hw.Metrics, error) {
	auto := s.ec.Txn == nil && isDML(node)
	if auto {
		s.ec.Begin()
	}
	b, iso, err := exec.ExecuteObserved(s.ec, template, fingerprint, node)
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
	if err == nil {
		s.stats.observeRep(template, node)
	}
	return b, iso, err
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
// however many distinct literals it carries.
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

// Close releases the session and removes it from the process list. The
// caller keeps the Stats handle: observations buffered at close remain
// drainable exactly once.
func (s *Session) Close() {
	s.mu.Lock()
	if s.state == Closed {
		s.mu.Unlock()
		return
	}
	s.state = Closed
	s.mu.Unlock()
	s.cancel(ErrClosed)
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
