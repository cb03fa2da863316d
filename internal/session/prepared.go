package session

import (
	"fmt"

	"mb2/internal/exec"
	"mb2/internal/hw"
	"mb2/internal/plan"
	"mb2/internal/sql"
)

// Prepared is one prepared statement: parsed once at Prepare, planned
// lazily, with the physical plan cached against the engine ConfigVersion
// it was built at. A knob change, repartition, or index publish advances
// the version and the next execution transparently replans — that is how
// a long-lived session picks up an index the self-driving loop published
// underneath it without re-preparing.
type Prepared struct {
	// Name keys the statement in its session and names the observation
	// template, so every execution of a prepared statement forecasts
	// under one stable template regardless of the statement text.
	Name string
	// SQL is the original statement text.
	SQL string

	stmt sql.Statement

	// Plan cache, owned by the session worker (no lock: a session runs
	// one statement at a time).
	node    plan.Node
	fp      uint64
	version uint64
	planned bool
	// replans counts cache misses after the initial planning — the
	// ConfigVersion invalidations observability hooks report.
	replans int
}

// Prepare parses the statement and registers it under name, replacing
// any previous statement with that name. Only plannable statements
// (SELECT and DML) can be prepared; DDL must go through ExecSQL.
func (s *Session) Prepare(name, query string) (*Prepared, error) {
	st, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	switch st.(type) {
	case sql.SelectStmt, sql.InsertStmt, sql.UpdateStmt, sql.DeleteStmt:
	default:
		return nil, fmt.Errorf("session: cannot prepare %T (DDL executes directly)", st)
	}
	p := &Prepared{Name: name, SQL: query, stmt: st}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == Closed {
		return nil, ErrClosed
	}
	if s.prepared == nil {
		s.prepared = make(map[string]*Prepared)
	}
	s.prepared[name] = p
	return p, nil
}

// Lookup returns a prepared statement by name, or nil.
func (s *Session) Lookup(name string) *Prepared {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.prepared[name]
}

// Replans returns how many times the statement was replanned after a
// ConfigVersion move (0 while the cached plan has stayed valid).
func (p *Prepared) Replans() int { return p.replans }

// plan returns the cached physical plan, replanning when the engine
// configuration has moved since it was built.
func (p *Prepared) plan(s *Session) (plan.Node, uint64, error) {
	v := s.ec.DB.ConfigVersion()
	if p.planned && v == p.version {
		return p.node, p.fp, nil
	}
	node, err := sql.NewPlanner(s.ec.DB).Plan(p.stmt)
	if err != nil {
		return nil, 0, err
	}
	if p.planned {
		p.replans++
	}
	p.node = node
	p.fp = plan.Fingerprint(node)
	p.version = v
	p.planned = true
	return p.node, p.fp, nil
}

// ExecPrepared executes a prepared statement by name, planning (or
// replanning, when the engine configuration moved) as needed.
func (s *Session) ExecPrepared(name string) (*exec.Batch, hw.Metrics, error) {
	s.mu.Lock()
	p := s.prepared[name]
	s.mu.Unlock()
	if p == nil {
		return nil, hw.Metrics{}, s.fail(fmt.Errorf("session: no prepared statement %q", name))
	}
	node, fp, err := p.plan(s)
	if err != nil {
		return nil, hw.Metrics{}, s.fail(err)
	}
	if isDML(node) {
		return s.execDML(p.Name, fp, node)
	}
	return s.ExecPlan(p.Name, fp, node)
}
