package session

import (
	"errors"
	"fmt"
	"slices"

	"mb2/internal/exec"
	"mb2/internal/hw"
	"mb2/internal/sql"
)

// ErrTooManyPrepared is returned by Prepare when the session already holds
// MaxPrepared statements under other names.
var ErrTooManyPrepared = errors.New("session: too many prepared statements")

// Prepared is one prepared statement: a name, and the literal vector of its
// text pointing at the plan-cache entry of its template. It executes exactly
// as ad-hoc text does, so it is replanned the same way: a knob change,
// repartition, or index publish advances the engine's ConfigVersion and the
// next execution plans again — that is how a long-lived session picks up an
// index the self-driving loop published underneath it without re-preparing.
type Prepared struct {
	// Name keys the statement in its session and names the observation
	// template, so every execution of a prepared statement forecasts
	// under one stable name.
	Name string
	// SQL is the original statement text.
	SQL string

	lits []sql.Literal
	e    *entry
}

// Prepare parses the statement and registers it under name, replacing
// any previous statement with that name. Only plannable statements
// (SELECT and DML) can be prepared; DDL must go through ExecSQL. Like
// execution, Prepare belongs to the session's worker goroutine.
func (s *Session) Prepare(name, query string) (*Prepared, error) {
	e, lits := s.cache.lookup(query)
	if e.stmt == nil {
		// A new template. Text that does not parse is refused here; text
		// that parses but does not plan (its table may come later) stays
		// prepared, and ExecPrepared plans it again.
		if err := s.miss(e, query); e.stmt == nil {
			return nil, err
		}
		if isDDL(e.stmt) {
			return nil, fmt.Errorf("session: cannot prepare %T (DDL executes directly)", e.stmt)
		}
		s.cache.keep(e)
	}
	p := &Prepared{Name: name, SQL: query, lits: slices.Clone(lits), e: e}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == Closed {
		return nil, ErrClosed
	}
	if _, replaces := s.prepared[name]; !replaces && len(s.prepared) >= MaxPrepared {
		s.failed++
		return nil, ErrTooManyPrepared
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

// Replans returns how many times the statement's template was replanned
// after a ConfigVersion move (0 while its plan has stayed valid).
func (p *Prepared) Replans() int { return p.e.replans }

// ExecPrepared executes a prepared statement by name from the session's
// plan cache, planning (or replanning, when the engine configuration
// moved) as needed.
func (s *Session) ExecPrepared(name string) (*exec.Batch, hw.Metrics, error) {
	p := s.Lookup(name)
	if p == nil {
		return nil, hw.Metrics{}, s.fail(fmt.Errorf("session: no prepared statement %q", name))
	}
	if err := s.beginStatement(name); err != nil {
		return nil, hw.Metrics{}, err
	}
	b, iso, err := s.execEntry(p.Name, p.e, p.lits, p.SQL)
	s.endStatement(err)
	return b, iso, err
}
