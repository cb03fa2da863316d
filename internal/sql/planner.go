package sql

import (
	"fmt"
	"math"
	"strings"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/exec"
	"mb2/internal/plan"
	"mb2/internal/storage"
)

// scope is the name-resolution environment: the ordered columns visible to
// expressions, each tagged with its source table and its index in that
// table's schema — the index table statistics are kept under.
type scope struct {
	tables []string // table per column
	names  []string // column name per column
	types  []catalog.Type
	local  []int // the column's index in its table
}

func scopeOf(db *engine.DB, table string) (*scope, error) {
	meta, err := db.Catalog.Table(table)
	if err != nil {
		return nil, err
	}
	s := &scope{}
	for i, c := range meta.Schema.Columns {
		s.tables = append(s.tables, table)
		s.names = append(s.names, strings.ToLower(c.Name))
		s.types = append(s.types, c.Type)
		s.local = append(s.local, i)
	}
	return s, nil
}

func (s *scope) concat(o *scope) *scope {
	return &scope{
		tables: append(append([]string(nil), s.tables...), o.tables...),
		names:  append(append([]string(nil), s.names...), o.names...),
		types:  append(append([]catalog.Type(nil), s.types...), o.types...),
		local:  append(append([]int(nil), s.local...), o.local...),
	}
}

// project returns the scope of the columns at positions cols, in that order.
func (s *scope) project(cols []int) *scope {
	p := &scope{}
	for _, c := range cols {
		p.tables = append(p.tables, s.tables[c])
		p.names = append(p.names, s.names[c])
		p.types = append(p.types, s.types[c])
		p.local = append(p.local, s.local[c])
	}
	return p
}

// refs calls f with the position of every column e names, failing on the
// first reference that does not resolve.
func (s *scope) refs(e Expr, f func(int)) error {
	switch v := e.(type) {
	case ColumnRef:
		i, err := s.resolve(v)
		if err != nil {
			return err
		}
		f(i)
	case BinaryExpr:
		if err := s.refs(v.L, f); err != nil {
			return err
		}
		return s.refs(v.R, f)
	}
	return nil
}

// resolve finds the position of a column reference, erroring on ambiguity.
func (s *scope) resolve(c ColumnRef) (int, error) {
	found := -1
	for i := range s.names {
		if s.names[i] != strings.ToLower(c.Name) {
			continue
		}
		if c.Table != "" && s.tables[i] != strings.ToLower(c.Table) {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("sql: ambiguous column %q", c.Name)
		}
		found = i
	}
	if found < 0 {
		return 0, fmt.Errorf("sql: unknown column %q", c.Name)
	}
	return found, nil
}

// Planner binds statements against a database and produces physical plans
// with cardinality estimates drawn from table statistics.
type Planner struct {
	DB *engine.DB
	// sites, when non-nil, collects the AST sources of every literal slot
	// of every node planned (PlanTemplate sets it; Plan leaves it nil).
	sites map[plan.Node]*nodeSites
}

// NewPlanner returns a planner over the database.
func NewPlanner(db *engine.DB) *Planner { return &Planner{DB: db} }

// literalConst is the plan constant of a literal in an expression.
func literalConst(l Literal) plan.Expr {
	switch {
	case l.IsString:
		return plan.StrConst(l.Str)
	case l.IsInt:
		return plan.IntConst(l.Int)
	default:
		return plan.FloatConst(l.Num)
	}
}

// binaryExpr is the plan expression of an infix operator over bound
// operands.
func binaryExpr(op string, l, r plan.Expr) (plan.Expr, error) {
	switch op {
	case "+":
		return plan.Arith{Op: plan.Add, L: l, R: r}, nil
	case "-":
		return plan.Arith{Op: plan.Sub, L: l, R: r}, nil
	case "*":
		return plan.Arith{Op: plan.Mul, L: l, R: r}, nil
	case "/":
		return plan.Arith{Op: plan.Div, L: l, R: r}, nil
	case "=":
		return plan.Cmp{Op: plan.EQ, L: l, R: r}, nil
	case "<>":
		return plan.Cmp{Op: plan.NE, L: l, R: r}, nil
	case "<":
		return plan.Cmp{Op: plan.LT, L: l, R: r}, nil
	case "<=":
		return plan.Cmp{Op: plan.LE, L: l, R: r}, nil
	case ">":
		return plan.Cmp{Op: plan.GT, L: l, R: r}, nil
	case ">=":
		return plan.Cmp{Op: plan.GE, L: l, R: r}, nil
	case "and":
		return plan.And{L: l, R: r}, nil
	case "or":
		return plan.Or{L: l, R: r}, nil
	default:
		return nil, fmt.Errorf("sql: unsupported operator %q", op)
	}
}

// bindExpr converts an AST expression into an executable plan expression.
func (pl *Planner) bindExpr(s *scope, e Expr) (plan.Expr, error) {
	switch v := e.(type) {
	case ColumnRef:
		i, err := s.resolve(v)
		if err != nil {
			return nil, err
		}
		return plan.Col(i), nil
	case Literal:
		return literalConst(v), nil
	case BinaryExpr:
		l, err := pl.bindExpr(s, v.L)
		if err != nil {
			return nil, err
		}
		r, err := pl.bindExpr(s, v.R)
		if err != nil {
			return nil, err
		}
		return binaryExpr(v.Op, l, r)
	default:
		return nil, fmt.Errorf("sql: unsupported expression %T", e)
	}
}

// distinct estimates the number of distinct combinations of the scope
// columns cols: each table's statistic over its own columns, under their
// indices in that table, multiplied across the tables named.
func (pl *Planner) distinct(s *scope, cols []int) float64 {
	d := 1.0
	done := make([]bool, len(cols))
	for i, c := range cols {
		if done[i] {
			continue
		}
		var local []int
		for j := i; j < len(cols); j++ {
			if !done[j] && s.tables[cols[j]] == s.tables[c] {
				local = append(local, s.local[cols[j]])
				done[j] = true
			}
		}
		d *= pl.DB.DistinctCount(s.tables[c], local)
	}
	return d
}

// selectivity estimates the fraction of rows a predicate keeps: the classic
// System R magic numbers, with equality refined by distinct counts.
func (pl *Planner) selectivity(s *scope, e Expr) float64 {
	switch v := e.(type) {
	case BinaryExpr:
		switch v.Op {
		case "and":
			return pl.selectivity(s, v.L) * pl.selectivity(s, v.R)
		case "or":
			l, r := pl.selectivity(s, v.L), pl.selectivity(s, v.R)
			return math.Min(1, l+r-l*r)
		case "=":
			if c, ok := v.L.(ColumnRef); ok {
				if i, err := s.resolve(c); err == nil {
					if d := pl.distinct(s, []int{i}); d > 0 {
						return 1 / d
					}
				}
			}
			return 0.1
		case "<>":
			return 0.9
		default: // range comparisons
			return 1.0 / 3
		}
	}
	return 1
}

// eqConjuncts extracts column = literal conjuncts from a predicate.
func eqConjuncts(e Expr, out map[string]Literal) {
	v, ok := e.(BinaryExpr)
	if !ok {
		return
	}
	switch v.Op {
	case "and":
		eqConjuncts(v.L, out)
		eqConjuncts(v.R, out)
	case "=":
		c, cok := v.L.(ColumnRef)
		l, lok := v.R.(Literal)
		if !cok || !lok {
			if c, cok = v.R.(ColumnRef); cok {
				l, lok = v.L.(Literal)
			}
		}
		if cok && lok {
			out[strings.ToLower(c.Name)] = l
		}
	}
}

func literalValue(l Literal, t catalog.Type) storage.Value {
	switch {
	case l.IsString:
		return storage.NewString(l.Str)
	case t == catalog.Float64 && l.IsInt:
		return storage.NewFloat(float64(l.Int))
	case l.IsInt:
		return storage.NewInt(l.Int)
	default:
		return storage.NewFloat(l.Num)
	}
}

// scanPlan builds the access path for a single table: a point index scan
// when an index's key columns are fully covered by equality conjuncts,
// otherwise a filtered sequential scan.
func (pl *Planner) scanPlan(table string, s *scope, where Expr) (plan.Node, float64, error) {
	rows := pl.DB.RowCount(table)
	outRows := rows
	var pred plan.Expr
	if where != nil {
		var err error
		pred, err = pl.bindExpr(s, where)
		if err != nil {
			return nil, 0, err
		}
		outRows = rows * pl.selectivity(s, where)
	}

	// Try index point access.
	if where != nil {
		eqs := map[string]Literal{}
		eqConjuncts(where, eqs)
		meta, _ := pl.DB.Catalog.Table(table)
		for _, im := range pl.DB.Catalog.TableIndexes(meta.ID) {
			if pl.DB.Index(im.Name) == nil || len(im.KeyCols) == 0 {
				continue
			}
			key := make([]Literal, 0, len(im.KeyCols))
			types := make([]catalog.Type, 0, len(im.KeyCols))
			for _, ci := range im.KeyCols {
				lit, ok := eqs[strings.ToLower(meta.Schema.Columns[ci].Name)]
				if !ok {
					break
				}
				key = append(key, lit)
				types = append(types, meta.Schema.Columns[ci].Type)
			}
			if len(key) < len(im.KeyCols) {
				continue
			}
			matches := rows / math.Max(1, pl.DB.DistinctCount(table, im.KeyCols))
			node := &plan.IdxScanNode{
				Table: table, Index: im.Name, Eq: bindValues(key, types, nil),
				Rows: plan.Estimates{Rows: matches, Distinct: matches},
			}
			// Residual predicates beyond the index key still apply.
			if len(eqs) > len(im.KeyCols) || hasNonEq(where) {
				node.Filter = pred
				node.Rows.Rows = math.Max(1, outRows)
			}
			if pl.sites != nil {
				ns := &nodeSites{vals: [][]Literal{key}, types: types}
				if node.Filter != nil {
					ns.exprs = []Expr{where}
				}
				pl.sites[node] = ns
			}
			return node, node.Rows.Rows, nil
		}
	}

	node := &plan.SeqScanNode{
		Table: table, Filter: pred,
		Rows:      plan.Estimates{Rows: outRows},
		TableRows: rows,
	}
	if pl.sites != nil {
		pl.sites[node] = &nodeSites{exprs: []Expr{where}}
	}
	return node, outRows, nil
}

func hasNonEq(e Expr) bool {
	v, ok := e.(BinaryExpr)
	if !ok {
		return true
	}
	switch v.Op {
	case "and":
		return hasNonEq(v.L) || hasNonEq(v.R)
	case "=":
		_, cok := v.L.(ColumnRef)
		_, lok := v.R.(Literal)
		if !cok || !lok {
			_, cok = v.R.(ColumnRef)
			_, lok = v.L.(Literal)
		}
		return !(cok && lok)
	default:
		return true
	}
}

// Plan binds a statement and returns its physical plan. SELECTs are wrapped
// in an Output node (the networking OU); DML plans must be executed inside
// a transaction.
func (pl *Planner) Plan(st Statement) (plan.Node, error) {
	switch v := st.(type) {
	case SelectStmt:
		return pl.planSelect(v)
	case InsertStmt:
		return pl.planInsert(v)
	case UpdateStmt:
		return pl.planUpdate(v)
	case DeleteStmt:
		return pl.planDelete(v)
	default:
		return nil, fmt.Errorf("sql: statement %T has no query plan (use Run)", st)
	}
}

var aggFns = map[string]plan.AggFn{"count": plan.Count, "sum": plan.Sum,
	"min": plan.Min, "max": plan.Max, "avg": plan.Avg}

// aggregates reports whether a SELECT plans as an aggregation.
func aggregates(st SelectStmt) bool {
	for _, it := range st.Items {
		if it.AggFn != "" {
			return true
		}
	}
	return len(st.GroupBy) > 0
}

func (pl *Planner) planSelect(st SelectStmt) (plan.Node, error) {
	b, err := pl.bindBlock(st)
	if err != nil {
		return nil, err
	}
	for _, rule := range selectRules {
		if err := rule(b); err != nil {
			return nil, err
		}
	}
	node, s, rows, err := pl.planBlock(b)
	if err != nil {
		return nil, err
	}

	// Aggregation or projection.
	if aggregates(st) {
		groupIdx := make([]int, 0, len(st.GroupBy))
		for _, g := range st.GroupBy {
			i, err := s.resolve(g)
			if err != nil {
				return nil, err
			}
			groupIdx = append(groupIdx, i)
		}
		var aggs []plan.AggSpec
		var srcs []Expr // per aggregate, nil for COUNT(*)
		for _, it := range st.Items {
			if it.AggFn == "" {
				if it.Star {
					return nil, fmt.Errorf("sql: SELECT * cannot mix with aggregates")
				}
				// Must be a grouping column; it is carried by GroupBy output.
				continue
			}
			var arg plan.Expr = plan.IntConst(1)
			if !it.AggStar {
				arg, err = pl.bindExpr(s, it.Expr)
				if err != nil {
					return nil, err
				}
			}
			aggs = append(aggs, plan.AggSpec{Fn: aggFns[it.AggFn], Arg: arg})
			srcs = append(srcs, it.Expr)
		}
		groups := 1.0
		if len(groupIdx) > 0 {
			groups = math.Min(rows, math.Max(1, pl.distinct(s, groupIdx)))
		}
		node = &plan.AggNode{Child: node, GroupBy: groupIdx, Aggs: aggs,
			Rows: plan.Estimates{Rows: groups, Distinct: groups}}
		if pl.sites != nil {
			pl.sites[node] = &nodeSites{exprs: srcs}
		}
		rows = groups
	} else if !(len(st.Items) == 1 && st.Items[0].Star) {
		// Plain projection list: column references use scan projection;
		// computed expressions use a Project node.
		allCols := true
		var cols []int
		for _, it := range st.Items {
			c, ok := it.Expr.(ColumnRef)
			if !ok {
				allCols = false
				break
			}
			i, err := s.resolve(c)
			if err != nil {
				return nil, err
			}
			cols = append(cols, i)
		}
		if allCols && len(st.OrderBy) == 0 && len(st.Joins) == 0 {
			setProject(node, cols)
		} else {
			var exprs []plan.Expr
			var srcs []Expr
			for _, it := range st.Items {
				e, err := pl.bindExpr(s, it.Expr)
				if err != nil {
					return nil, err
				}
				exprs = append(exprs, e)
				srcs = append(srcs, it.Expr)
			}
			// Sorting happens on the pre-projection tuples so ORDER BY can
			// reference any input column.
			if len(st.OrderBy) > 0 {
				node, err = pl.sortNode(node, s, st, rows)
				if err != nil {
					return nil, err
				}
			}
			node = &plan.ProjectNode{Child: node, Exprs: exprs, Rows: plan.Estimates{Rows: rows}}
			if pl.sites != nil {
				pl.sites[node] = &nodeSites{exprs: srcs}
			}
			st.OrderBy = nil
		}
	}

	if len(st.OrderBy) > 0 {
		node, err = pl.sortNode(node, s, st, rows)
		if err != nil {
			return nil, err
		}
		if st.Limit > 0 && float64(st.Limit) < rows {
			rows = float64(st.Limit)
		}
	} else if st.Limit > 0 {
		node = &plan.SortNode{Child: node, Keys: nil, Limit: st.Limit,
			Rows: plan.Estimates{Rows: math.Min(rows, float64(st.Limit))}}
		rows = math.Min(rows, float64(st.Limit))
	}
	return &plan.OutputNode{Child: node, Rows: plan.Estimates{Rows: rows}}, nil
}

// sortNode resolves ORDER BY columns. For aggregation outputs, ordinal
// positions resolve against the output row (group cols then aggregates).
func (pl *Planner) sortNode(child plan.Node, s *scope, st SelectStmt, rows float64) (plan.Node, error) {
	var keys []plan.SortKey
	for _, o := range st.OrderBy {
		var idx int
		if agg, ok := child.(*plan.AggNode); ok {
			// Group columns come first in the output row.
			found := -1
			for gi, g := range agg.GroupBy {
				if s.names[g] == strings.ToLower(o.Col.Name) {
					found = gi
				}
			}
			if found < 0 {
				return nil, fmt.Errorf("sql: ORDER BY %q must be a grouping column", o.Col.Name)
			}
			idx = found
		} else {
			i, err := s.resolve(o.Col)
			if err != nil {
				return nil, err
			}
			idx = i
		}
		keys = append(keys, plan.SortKey{Col: idx, Desc: o.Desc})
	}
	outRows := rows
	if st.Limit > 0 && float64(st.Limit) < outRows {
		outRows = float64(st.Limit)
	}
	return &plan.SortNode{Child: child, Keys: keys, Limit: st.Limit,
		Rows: plan.Estimates{Rows: outRows}}, nil
}

func (pl *Planner) planInsert(st InsertStmt) (plan.Node, error) {
	meta, err := pl.DB.Catalog.Table(st.Table)
	if err != nil {
		return nil, err
	}
	types := make([]catalog.Type, meta.Schema.NumColumns())
	for i, c := range meta.Schema.Columns {
		types[i] = c.Type
	}
	for _, row := range st.Rows {
		if len(row) != len(types) {
			return nil, fmt.Errorf("sql: INSERT row has %d values, table %q has %d columns",
				len(row), st.Table, len(types))
		}
	}
	node := &plan.InsertNode{Table: st.Table, Tuples: bindRows(st.Rows, types, nil)}
	if pl.sites != nil {
		pl.sites[node] = &nodeSites{vals: st.Rows, types: types}
	}
	return node, nil
}

func (pl *Planner) planUpdate(st UpdateStmt) (plan.Node, error) {
	s, err := scopeOf(pl.DB, st.Table)
	if err != nil {
		return nil, err
	}
	child, rows, err := pl.scanPlan(st.Table, s, st.Where)
	if err != nil {
		return nil, err
	}
	node := &plan.UpdateNode{Child: child, Table: st.Table, Rows: plan.Estimates{Rows: rows}}
	var srcs []Expr
	for _, set := range st.Set {
		i, err := s.resolve(ColumnRef{Name: set.Col})
		if err != nil {
			return nil, err
		}
		e, err := pl.bindExpr(s, set.Expr)
		if err != nil {
			return nil, err
		}
		node.SetCols = append(node.SetCols, i)
		node.SetExprs = append(node.SetExprs, e)
		srcs = append(srcs, set.Expr)
	}
	if pl.sites != nil {
		pl.sites[node] = &nodeSites{exprs: srcs}
	}
	return node, nil
}

func (pl *Planner) planDelete(st DeleteStmt) (plan.Node, error) {
	s, err := scopeOf(pl.DB, st.Table)
	if err != nil {
		return nil, err
	}
	child, rows, err := pl.scanPlan(st.Table, s, st.Where)
	if err != nil {
		return nil, err
	}
	return &plan.DeleteNode{Child: child, Table: st.Table, Rows: plan.Estimates{Rows: rows}}, nil
}

func sqlType(t string) catalog.Type {
	switch t {
	case "float", "double", "real":
		return catalog.Float64
	case "varchar", "text":
		return catalog.Varchar
	default:
		return catalog.Int64
	}
}

// Run parses and executes one statement.
func Run(ctx *exec.Ctx, query string) (*exec.Batch, error) {
	st, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return RunStatement(ctx, st)
}

// RunStatement executes one parsed statement. DDL executes against the
// engine directly; queries and DML run through the executor (DML requires
// ctx.Txn). SELECT results are returned as a batch.
func RunStatement(ctx *exec.Ctx, st Statement) (*exec.Batch, error) {
	switch v := st.(type) {
	case CreateTableStmt:
		cols := make([]catalog.Column, len(v.Columns))
		for i, c := range v.Columns {
			cols[i] = catalog.Column{Name: c.Name, Type: sqlType(c.Type)}
		}
		_, err := ctx.DB.CreateTable(v.Table, catalog.NewSchema(cols...))
		return &exec.Batch{}, err
	case CreateIndexStmt:
		var col = ctx.Tracker.Collector()
		_, _, err := ctx.DB.CreateIndex(col, ctx.Thread().CPU(), v.Name, v.Table, v.Columns, v.Unique, v.Threads)
		return &exec.Batch{}, err
	case DropIndexStmt:
		return &exec.Batch{}, ctx.DB.DropIndex(v.Name)
	default:
		p, err := NewPlanner(ctx.DB).Plan(st)
		if err != nil {
			return nil, err
		}
		return exec.Execute(ctx, p)
	}
}
