package sql

import (
	"fmt"
	"math"

	"mb2/internal/plan"
)

// A SELECT plans in three steps. bindBlock resolves its FROM and JOIN list
// into a selectBlock: one joinInput per table, the key pair of every join,
// and the whole WHERE as one residual conjunct over the joined row. The
// selectRules then rewrite the block, in order. Each rule is small and does
// one job, and — the discipline of go-mysql-server's analyzer — leaves a
// block that plans to a tree as correct, and as bindable by Template.Bind,
// as the one it received: a conjunct moves whole, so each literal keeps the
// one AST source its plan slot is rebuilt from. Last, planBlock builds the
// scans and left-deep hash joins the block describes. Every SELECT runs every
// rule; nothing switches one off.
var selectRules = []func(*selectBlock) error{pushPredicates, pruneColumns}

// selectBlock is a SELECT's FROM, JOIN and WHERE clauses as the rules see
// them.
type selectBlock struct {
	st     SelectStmt
	inputs []*joinInput // the FROM table, then each JOIN's table
	// keys holds, per JOIN, the scope positions of its build-side key (a
	// column of an earlier input) and of its probe-side key.
	keys  [][2]int
	scope *scope // every input's columns, in input order
	// residual holds the WHERE conjuncts a FilterNode applies above the
	// joins.
	residual []Expr
}

// joinInput is one table of a SELECT and what the rules decided for its
// scan.
type joinInput struct {
	table string
	scope *scope // the table's own columns
	start int    // the block scope position of its first column
	where Expr   // the conjuncts pushed into its scan, nil for none
	keep  []int  // the columns its scan projects, nil for all
}

// bindBlock resolves a SELECT's tables and join conditions.
func (pl *Planner) bindBlock(st SelectStmt) (*selectBlock, error) {
	s, err := scopeOf(pl.DB, st.From)
	if err != nil {
		return nil, err
	}
	b := &selectBlock{st: st, inputs: []*joinInput{{table: st.From, scope: s}}, scope: s}
	for _, j := range st.Joins {
		rs, err := scopeOf(pl.DB, j.Table)
		if err != nil {
			return nil, err
		}
		start := len(b.scope.names)
		b.scope = b.scope.concat(rs)
		l, err := b.scope.resolve(j.OnL)
		if err != nil {
			return nil, err
		}
		r, err := b.scope.resolve(j.OnR)
		if err != nil {
			return nil, err
		}
		// Orient keys: build side is the accumulated left input.
		if l >= start {
			l, r = r, l
		}
		if l >= start || r < start {
			return nil, fmt.Errorf("sql: join condition must relate %s to %s", st.From, j.Table)
		}
		b.inputs = append(b.inputs, &joinInput{table: j.Table, scope: rs, start: start})
		b.keys = append(b.keys, [2]int{l, r})
	}
	if st.Where != nil {
		b.residual = []Expr{st.Where}
	}
	return b, nil
}

// owner returns the input whose columns e names: the FROM table's when e
// names no column, -1 when it names the columns of more than one input.
func (b *selectBlock) owner(e Expr) (int, error) {
	k, none := 0, true
	err := b.scope.refs(e, func(i int) {
		in := len(b.inputs) - 1
		for b.inputs[in].start > i {
			in--
		}
		if none {
			k, none = in, false
		} else if in != k {
			k = -1
		}
	})
	return k, err
}

// pushPredicates moves each WHERE conjunct that names the columns of one
// table only into that table's scan, which then drops the rows it fails
// before any join sees them — and, through scanPlan, turns an equality on
// an indexed column into an index scan. A conjunct moves whole when it can;
// an AND that spans tables is split into its operands; what still spans
// tables stays residual. Every join is INNER, so a conjunct over one input's
// columns drops, early, exactly the joined rows it would drop late.
func pushPredicates(b *selectBlock) error {
	where := b.residual
	b.residual = nil
	for _, e := range where {
		if err := b.push(e); err != nil {
			return err
		}
	}
	return nil
}

func (b *selectBlock) push(e Expr) error {
	k, err := b.owner(e)
	if err != nil {
		return err
	}
	if k >= 0 {
		b.inputs[k].where = conjoin(b.inputs[k].where, e)
		return nil
	}
	if v, ok := e.(BinaryExpr); ok && v.Op == "and" {
		if err := b.push(v.L); err != nil {
			return err
		}
		return b.push(v.R)
	}
	b.residual = append(b.residual, e)
	return nil
}

// conjoin returns l AND r, or r when l is nil.
func conjoin(l, r Expr) Expr {
	if l == nil {
		return r
	}
	return BinaryExpr{Op: "and", L: l, R: r}
}

// pruneColumns narrows the scan of every input of a join to the columns an
// operator above the scans reads: the join keys, the residual conjuncts, the
// select list (every column under SELECT *), and the GROUP BY columns and
// aggregate arguments of an aggregation or the ORDER BY columns of a plain
// select. A pushed conjunct reads the scan's row before the projection, so
// it keeps no column. A single-table SELECT has no join to narrow a scan
// for: planSelect moves a plain column list into its scan instead.
func pruneColumns(b *selectBlock) error {
	if len(b.inputs) == 1 {
		return nil
	}
	used := make([]bool, len(b.scope.names))
	for _, k := range b.keys {
		used[k[0]], used[k[1]] = true, true
	}
	exprs := append([]Expr(nil), b.residual...)
	agg := aggregates(b.st)
	for _, it := range b.st.Items {
		switch {
		case it.Star:
			for i := range used {
				used[i] = true
			}
		case it.AggFn != "" || !agg: // Expr is nil for COUNT(*)
			exprs = append(exprs, it.Expr)
		}
	}
	for _, g := range b.st.GroupBy {
		exprs = append(exprs, g)
	}
	if !agg {
		for _, o := range b.st.OrderBy {
			exprs = append(exprs, o.Col)
		}
	}
	for _, e := range exprs {
		if err := b.scope.refs(e, func(i int) { used[i] = true }); err != nil {
			return err
		}
	}
	for _, in := range b.inputs {
		var keep []int
		for c := range in.scope.names {
			if used[in.start+c] {
				keep = append(keep, c)
			}
		}
		if len(keep) < len(in.scope.names) {
			in.keep = keep
		}
	}
	return nil
}

// planBlock builds the tree a rewritten block describes: each input's access
// path through scanPlan, projected to its kept columns, joined left-deep —
// the accumulated left input builds each hash table and the next input's
// scan probes it — under a FilterNode for the residual conjuncts. It returns
// the tree, the scope of its output rows and their estimated count. Every
// column an operator above reads was kept, so resolving it in the output
// scope finds the column it found in the block's.
func (pl *Planner) planBlock(b *selectBlock) (plan.Node, *scope, float64, error) {
	var node plan.Node
	out := &scope{}
	var rows float64
	at := make([]int, len(b.scope.names)) // block scope position → output position
	for k, in := range b.inputs {
		scan, scanRows, err := pl.scanPlan(in.table, in.scope, in.where)
		if err != nil {
			return nil, nil, 0, err
		}
		kept := in.scope
		if in.keep != nil {
			setProject(scan, in.keep)
			kept = in.scope.project(in.keep)
		}
		base := len(out.names)
		for j, c := range kept.local {
			at[in.start+c] = base + j
		}
		if k == 0 {
			node, out, rows = scan, kept, scanRows
			continue
		}
		// The probe side is what the scan emits: its pushed filter shrinks
		// the join's estimate as it shrinks the join's input.
		key := b.keys[k-1]
		buildDistinct := math.Max(1, rows/2)
		joined := math.Max(1, rows*scanRows/math.Max(1, math.Max(buildDistinct, scanRows)))
		node = &plan.HashJoinNode{
			Left:      node,
			Right:     scan,
			LeftKeys:  []int{at[key[0]]},
			RightKeys: []int{at[key[1]] - base},
			Rows:      plan.Estimates{Rows: joined, Distinct: buildDistinct},
		}
		out, rows = out.concat(kept), joined
	}
	if len(b.residual) == 0 {
		return node, out, rows, nil
	}
	var where Expr
	for _, e := range b.residual {
		where = conjoin(where, e)
	}
	pred, err := pl.bindExpr(out, where)
	if err != nil {
		return nil, nil, 0, err
	}
	rows = math.Max(1, rows*pl.selectivity(out, where))
	node = &plan.FilterNode{Child: node, Pred: pred, Rows: plan.Estimates{Rows: rows}}
	if pl.sites != nil {
		pl.sites[node] = &nodeSites{exprs: []Expr{where}}
	}
	return node, out, rows, nil
}

// setProject makes a scan emit only the columns cols of each row it reads.
func setProject(scan plan.Node, cols []int) {
	switch sc := scan.(type) {
	case *plan.SeqScanNode:
		sc.Project = cols
	case *plan.IdxScanNode:
		sc.Project = cols
	}
}
