package session

import (
	"container/list"
	"slices"

	"mb2/internal/exec"
	"mb2/internal/hw"
	"mb2/internal/sql"
)

// Bounds of a session's statement cache. They are constants: no workload
// here comes near them, and a client that does gets LRU eviction (and a
// typed error for prepared statements), not unbounded growth.
const (
	// MaxTemplates is how many statement templates a session keeps planned.
	MaxTemplates = 256
	// MaxPrepared is how many prepared statements a session may hold.
	MaxPrepared = 256
)

// entry is one statement template of a session's plan cache: the statement
// parsed from the first text that had this key and its plan at one
// ConfigVersion. Ad-hoc statements reach it by key, prepared statements
// hold a pointer to it; both execute through Session.execEntry.
type entry struct {
	// key is the literal-normalised text (sql.Normalize): the cache key and
	// the observation template of ad-hoc executions.
	key string
	// stmt and lits are the statement and literal vector of the text the
	// entry was made from; tmpl is stmt planned at version, nil until the
	// first successful planning.
	stmt    sql.Statement
	lits    []sql.Literal
	tmpl    *sql.Template
	version uint64
	// replans counts plannings after the first: the ConfigVersion
	// invalidations Prepared.Replans reports.
	replans int
	// lru is the entry's place in the eviction order, nil while it is not
	// in the cache: not planned yet, evicted with a prepared statement
	// still pointing at it, or uncacheable.
	lru         *list.Element
	uncacheable bool
}

// PlanCacheStats counts a session's plan-cache traffic.
type PlanCacheStats struct {
	Entries   int    // templates cached now
	Hits      uint64 // statements served by a cached template
	Misses    uint64 // statements parsed: first of a template, or uncacheable
	Evictions uint64 // templates dropped at MaxTemplates
}

// planCache is a session's bounded, least-recently-used map from template
// key to entry. It is owned by the session worker.
type planCache struct {
	entries map[string]*entry
	order   *list.List // front = most recently used; values are *entry
	stats   PlanCacheStats
	// key and lits are the scratch sql.Normalize appends to, reused from
	// statement to statement.
	key  []byte
	lits []sql.Literal
}

// lookup normalises text into the scratch and returns the cached entry of
// its template, or a new entry that keep may cache later, together with
// the text's literal vector (scratch: valid until the next lookup).
func (c *planCache) lookup(text string) (*entry, []sql.Literal) {
	var ok bool
	c.key, c.lits, ok = sql.Normalize(text, c.key[:0], c.lits[:0])
	if !ok {
		// No usable key (too many literals, or text that will not parse):
		// the statement runs on an entry of its own with its literals left
		// in the tree. What the scan saw still names its observations.
		c.stats.Misses++
		return &entry{key: string(c.key) + " ...", uncacheable: true}, nil
	}
	e := c.entries[string(c.key)]
	if e != nil {
		c.order.MoveToFront(e.lru)
		c.stats.Hits++
	} else {
		c.stats.Misses++
		e = &entry{key: string(c.key), lits: slices.Clone(c.lits)}
	}
	return e, c.lits
}

// keep caches a new entry once it holds a plan, evicting the least
// recently used one at the bound. Entries already cached, uncacheable, or
// without a plan (DDL, a statement that failed to plan) are left alone.
func (c *planCache) keep(e *entry) {
	if e.lru != nil || e.uncacheable || e.tmpl == nil {
		return
	}
	if c.entries == nil {
		c.entries = make(map[string]*entry)
		c.order = list.New()
	}
	if c.order.Len() >= MaxTemplates {
		c.drop(c.order.Back().Value.(*entry))
		c.stats.Evictions++
	}
	c.entries[e.key] = e
	e.lru = c.order.PushFront(e)
}

func (c *planCache) drop(e *entry) {
	delete(c.entries, e.key)
	c.order.Remove(e.lru)
	e.lru = nil
}

// PlanCache returns the session's plan-cache counters. Like the cache it
// belongs to the session worker.
func (s *Session) PlanCache() PlanCacheStats {
	st := s.cache.stats
	st.Entries = len(s.cache.entries)
	return st
}

// miss is the cache-miss path, the only function in this package that
// parses or plans: it parses text into e when e holds no statement yet,
// then plans the statement at the engine's current ConfigVersion. DDL has
// no plan and is left with tmpl nil.
func (s *Session) miss(e *entry, text string) error {
	if e.stmt == nil {
		st, err := sql.Parse(text)
		if err != nil {
			return err
		}
		e.stmt = st
	}
	if isDDL(e.stmt) {
		return nil
	}
	v := s.ec.DB.ConfigVersion()
	t, err := sql.NewPlanner(s.ec.DB).PlanTemplate(e.stmt, len(e.lits))
	if err != nil {
		return err
	}
	if e.tmpl != nil {
		e.replans++
	}
	e.tmpl, e.version = t, v
	return nil
}

// isDDL reports whether a statement runs against the engine directly
// rather than through a plan.
func isDDL(st sql.Statement) bool {
	switch st.(type) {
	case sql.CreateTableStmt, sql.CreateIndexStmt, sql.DropIndexStmt:
		return true
	}
	return false
}

// execEntry is the one body every SQL statement executes through, ad-hoc
// or prepared, inside a statement the caller began: plan the entry if it
// never was or ConfigVersion has moved since, bind the literal vector, run.
// template names the observation; text is the statement's own text, parsed
// only if the entry cannot serve lits.
func (s *Session) execEntry(template string, e *entry, lits []sql.Literal, text string) (*exec.Batch, hw.Metrics, error) {
	if e.tmpl == nil || e.version != s.ec.DB.ConfigVersion() {
		if err := s.miss(e, text); err != nil {
			return nil, hw.Metrics{}, err
		}
		if e.tmpl == nil {
			// DDL runs against the engine directly and is never cached; an
			// index it creates or drops advances ConfigVersion, which is
			// what invalidates every cached template. It is the session's
			// next statement all the same.
			s.Release()
			b, err := sql.RunStatement(s.ec, e.stmt)
			return b, hw.Metrics{}, err
		}
	}
	var r ran
	switch {
	case slices.Equal(lits, e.lits):
		// The very literals the tree was planned with (a repeated text, a
		// prepared statement): nothing to bind.
		r.node = e.tmpl.Root()
	case e.tmpl.Bindable():
		r = ran{node: e.tmpl.Bind(lits), tmpl: e.tmpl, lits: lits}
	default:
		// The planner read one of the literals to shape this tree, so it
		// serves no other vector: run this text on its own.
		own := &entry{key: e.key, lits: lits}
		if err := s.miss(own, text); err != nil {
			return nil, hw.Metrics{}, err
		}
		r.node = own.tmpl.Root()
	}
	return s.run(template, r)
}
