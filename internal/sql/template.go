package sql

import (
	"slices"

	"mb2/internal/catalog"
	"mb2/internal/plan"
	"mb2/internal/storage"
)

// MaxTemplateLiterals caps the literal vector Normalize builds: a statement
// with more literals (a bulk INSERT of thousands of rows) is not worth a
// cache entry whose key runs to megabytes.
const MaxTemplateLiterals = 1024

// Normalize scans a statement once, without allocating beyond the two
// buffers it appends to, and returns its template key and its parameter
// literals. The key is the token sequence joined by single spaces with
// ASCII letters of identifiers lowercased and every parameter literal
// replaced by a kind marker: ?i (integer), ?f (number with a decimal
// point), ?s (string). A sign stays in the key as its own token, and so
// does the count after LIMIT, which shapes the plan. Two texts with equal
// keys therefore parse to the same statement up to the values of the
// literals at equal positions, which is what makes the key a plan-cache
// key and an observation template.
//
// ok is false when the text does not lex, a number does not convert, or
// there are more than MaxTemplateLiterals literals; key then holds the part
// scanned so far and the statement must run uncached.
func Normalize(text string, key []byte, lits []Literal) (k []byte, l []Literal, ok bool) {
	s := scanner{input: text}
	for {
		t, err := s.next()
		if err != nil {
			return key, lits, false
		}
		if t.kind == tkEOF {
			return key, lits, true
		}
		if t.param > MaxTemplateLiterals {
			return key, lits, false
		}
		raw := text[t.start:t.end]
		var num Literal
		if t.kind == tkNumber && t.param != 0 {
			if num, err = numberLiteral(raw); err != nil {
				return key, lits, false
			}
		}
		if len(key) > 0 {
			key = append(key, ' ')
		}
		switch {
		case t.kind == tkIdent:
			for i := 0; i < len(raw); i++ {
				c := raw[i]
				if 'A' <= c && c <= 'Z' {
					c |= 0x20
				}
				key = append(key, c)
			}
		case t.param == 0:
			key = append(key, raw...)
		case t.kind == tkString:
			key = append(key, "?s"...)
			lits = append(lits, Literal{IsString: true, Str: raw[1 : len(raw)-1]})
		case num.IsInt:
			key = append(key, "?i"...)
			lits = append(lits, num)
		default:
			key = append(key, "?f"...)
			lits = append(lits, num)
		}
	}
}

// nodeSites names the AST sources of one plan node's literal-bearing
// slots, so Bind can rebuild exactly those slots from a literal vector.
type nodeSites struct {
	// exprs are the sources of the node's expression slots in slot order
	// (SeqScan/IdxScan Filter, Filter Pred, Project Exprs, Agg Args, Update
	// SetExprs); nil where a slot has no source.
	exprs []Expr
	// vals are the sources of the node's value slots — one row for an
	// IdxScan's Eq key, one per tuple for an Insert — and types the column
	// type each position is coerced to.
	vals  [][]Literal
	types []catalog.Type
}

// Template is a planned statement that remembers where each parameter
// literal of its text landed in the tree, so the same tree can serve any
// statement with the same template key.
//
// A Template belongs to one goroutine: Bind rewrites the template's bound
// tree in place.
type Template struct {
	root plan.Node
	// sites holds every node on a path from the root to a parameter site,
	// with a nil value for nodes that are only on the way to one.
	sites    map[plan.Node]*nodeSites
	bindable bool
	// bound is the tree Bind rewrites: root's nodes on the way to a
	// parameter site, copied on the first Bind, over every other subtree of
	// root. slots are its nodes that hold a site.
	bound plan.Node
	slots []slot
}

// slot is a node of a copied tree that holds parameter sites, and the AST
// sources of those sites.
type slot struct {
	node plan.Node
	ns   *nodeSites
}

// PlanTemplate plans st, a statement with nlits parameter literals (the
// length of the vector Normalize returned for its text).
func (pl *Planner) PlanTemplate(st Statement, nlits int) (*Template, error) {
	rec := &Planner{DB: pl.DB, sites: make(map[plan.Node]*nodeSites)}
	root, err := rec.Plan(st)
	if err != nil {
		return nil, err
	}
	t := &Template{root: root, sites: make(map[plan.Node]*nodeSites)}
	landed := make([]bool, nlits)
	t.mark(root, rec.sites, landed)
	t.bindable = true
	for _, ok := range landed {
		t.bindable = t.bindable && ok
	}
	return t, nil
}

// mark fills t.sites for the subtree under n and reports whether it holds
// a parameter site; landed[i] is set for every parameter i+1 it finds.
func (t *Template) mark(n plan.Node, rec map[plan.Node]*nodeSites, landed []bool) bool {
	on := false
	for _, c := range n.Children() {
		if t.mark(c, rec, landed) {
			on = true
		}
	}
	ns := rec[n]
	if ns != nil && !ns.params(landed) {
		ns = nil
	}
	if on || ns != nil {
		t.sites[n] = ns
	}
	return on || ns != nil
}

// params marks the parameters among the node's sources and reports
// whether there are any.
func (ns *nodeSites) params(landed []bool) bool {
	any := false
	for _, e := range ns.exprs {
		any = markParams(e, landed) || any
	}
	for _, row := range ns.vals {
		for _, l := range row {
			any = markParams(l, landed) || any
		}
	}
	return any
}

func markParams(e Expr, landed []bool) bool {
	switch v := e.(type) {
	case Literal:
		if v.Param > 0 && v.Param <= len(landed) {
			landed[v.Param-1] = true
			return true
		}
	case BinaryExpr:
		l, r := markParams(v.L, landed), markParams(v.R, landed)
		return l || r
	}
	return false
}

// Root returns the tree as planned, holding the literals of the statement
// it was planned from.
func (t *Template) Root() plan.Node { return t.root }

// Bindable reports whether every parameter literal landed in a value slot
// of the tree. When one did not — the planner read it to shape the plan, or
// dropped it — the tree serves only the literal vector it was planned
// from, and Bind must not be used.
func (t *Template) Bindable() bool { return t.bindable }

// Bind returns the plan for a statement with t's template key and
// parameter literals lits, equal to planning that statement afresh. The
// first call copies the nodes on the way to a literal, sharing every other
// subtree with the tree as planned, which is never written; every call
// rewrites the copy's literal slots in place. The result is therefore valid
// until t's next Bind: a caller that keeps the plan beyond that keeps
// Snapshot(lits) instead.
func (t *Template) Bind(lits []Literal) plan.Node {
	if t.bound == nil {
		t.bound = t.copyPath(t.root, &t.slots)
	}
	for _, s := range t.slots {
		s.rebind(lits)
	}
	return t.bound
}

// Snapshot returns what Bind(lits) returns, as a tree of its own that no
// later Bind writes: the copy and the rebinding Bind does, made fresh.
func (t *Template) Snapshot(lits []Literal) plan.Node {
	var slots []slot
	n := t.copyPath(t.root, &slots)
	for _, s := range slots {
		s.rebind(lits)
	}
	return n
}

// copyPath copies the nodes of the subtree under n that are on the way to a
// parameter site, shares the rest, and appends the copies that hold sites to
// slots. A copy owns the slices rebind writes into.
func (t *Template) copyPath(n plan.Node, slots *[]slot) plan.Node {
	ns, on := t.sites[n]
	if !on {
		return n
	}
	c := plan.MapChildren(n, func(k plan.Node) plan.Node { return t.copyPath(k, slots) })
	if ns == nil {
		return c
	}
	switch c := c.(type) {
	case *plan.IdxScanNode:
		c.Eq = make([]storage.Value, len(ns.vals[0]))
	case *plan.ProjectNode:
		c.Exprs = slices.Clone(c.Exprs)
	case *plan.UpdateNode:
		c.SetExprs = slices.Clone(c.SetExprs)
	case *plan.AggNode:
		c.Aggs = slices.Clone(c.Aggs)
	}
	*slots = append(*slots, slot{node: c, ns: ns})
	return c
}

// rebind writes the literal slots of s.node with the parameters taken from
// lits.
func (s slot) rebind(lits []Literal) {
	ns := s.ns
	switch c := s.node.(type) {
	case *plan.SeqScanNode:
		c.Filter, _ = rebindExpr(c.Filter, ns.exprs[0], lits)
	case *plan.IdxScanNode:
		fillValues(c.Eq, ns.vals[0], ns.types, lits)
		if c.Filter != nil {
			c.Filter, _ = rebindExpr(c.Filter, ns.exprs[0], lits)
		}
	case *plan.FilterNode:
		c.Pred, _ = rebindExpr(c.Pred, ns.exprs[0], lits)
	case *plan.ProjectNode:
		for i := range c.Exprs {
			c.Exprs[i], _ = rebindExpr(c.Exprs[i], ns.exprs[i], lits)
		}
	case *plan.UpdateNode:
		for i := range c.SetExprs {
			c.SetExprs[i], _ = rebindExpr(c.SetExprs[i], ns.exprs[i], lits)
		}
	case *plan.AggNode:
		for i := range c.Aggs {
			c.Aggs[i].Arg, _ = rebindExpr(c.Aggs[i].Arg, ns.exprs[i], lits)
		}
	case *plan.InsertNode:
		c.Tuples = bindRows(ns.vals, ns.types, lits)
	}
}

// bindValues converts one row of literals, parameters taken from lits, to
// values of the given column types. The planner builds Eq keys and INSERT
// tuples with it too (lits nil), so planning and binding coerce alike.
func bindValues(row []Literal, types []catalog.Type, lits []Literal) []storage.Value {
	out := make([]storage.Value, len(row))
	fillValues(out, row, types, lits)
	return out
}

// bindRows is bindValues over the rows of an INSERT. Every call makes
// fresh tuples: storage and the log keep the ones an execution inserts.
func bindRows(rows [][]Literal, types []catalog.Type, lits []Literal) []storage.Tuple {
	out := make([]storage.Tuple, len(rows))
	for i, row := range rows {
		out[i] = bindValues(row, types, lits)
	}
	return out
}

// fillValues is bindValues into out.
func fillValues(out []storage.Value, row []Literal, types []catalog.Type, lits []Literal) {
	for i, l := range row {
		out[i] = literalValue(l.from(lits), types[i])
	}
}

// rebindExpr returns bound — the plan expression of AST source src — with
// the parameters in src taken from lits, and whether there were any.
// Subtrees without a parameter are shared with bound.
func rebindExpr(bound plan.Expr, src Expr, lits []Literal) (plan.Expr, bool) {
	switch v := src.(type) {
	case Literal:
		if v.Param != 0 {
			return literalConst(v.from(lits)), true
		}
	case BinaryExpr:
		var l, r plan.Expr
		switch b := bound.(type) {
		case plan.Arith:
			l, r = b.L, b.R
		case plan.Cmp:
			l, r = b.L, b.R
		case plan.And:
			l, r = b.L, b.R
		case plan.Or:
			l, r = b.L, b.R
		}
		l, lchanged := rebindExpr(l, v.L, lits)
		r, rchanged := rebindExpr(r, v.R, lits)
		if lchanged || rchanged {
			// bindExpr accepted v.Op when it built bound.
			e, _ := binaryExpr(v.Op, l, r)
			return e, true
		}
	}
	return bound, false
}
