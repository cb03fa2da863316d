package sql

import (
	"strconv"
	"strings"
)

// AST node types for the supported statement subset.

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// Expr is a parsed scalar expression.
type Expr interface{ expr() }

// ColumnRef names a column, optionally table-qualified.
type ColumnRef struct{ Table, Name string }

// Literal is a numeric or string constant.
type Literal struct {
	IsString bool
	Str      string
	Num      float64
	IsInt    bool
	Int      int64
	// Param is the literal's 1-based position among the statement's
	// parameter literals (the ?i / ?f / ?s of its template key), 0 when it
	// is not one; Neg records a sign the parser folded into the value. The
	// two are what lets a cached plan take this literal from another
	// statement's vector (Template.Bind).
	Param int
	Neg   bool
}

// numberLiteral converts an unsigned number token: a float when it has a
// decimal point, an integer otherwise.
func numberLiteral(text string) (Literal, error) {
	if strings.Contains(text, ".") {
		f, err := strconv.ParseFloat(text, 64)
		return Literal{Num: f}, err
	}
	n, err := strconv.ParseInt(text, 10, 64)
	return Literal{IsInt: true, Int: n, Num: float64(n)}, err
}

// negated returns the literal with a leading minus sign folded in.
func (l Literal) negated() Literal {
	l.Neg = true
	if l.IsInt {
		l.Int = -l.Int
		l.Num = float64(l.Int)
	} else {
		l.Num = -l.Num
	}
	return l
}

// from returns the literal a plan site takes when the statement's
// parameters come from vector lits: l itself when it is not a parameter,
// or when lits is nil (the statement's own literals).
func (l Literal) from(lits []Literal) Literal {
	if l.Param == 0 || lits == nil {
		return l
	}
	v := lits[l.Param-1]
	if l.Neg {
		v = v.negated()
	}
	return v
}

// BinaryExpr is an infix operation: arithmetic, comparison, AND/OR.
type BinaryExpr struct {
	Op   string // "+", "-", "*", "/", "=", "<>", "<", "<=", ">", ">=", "and", "or"
	L, R Expr
}

func (ColumnRef) expr()  {}
func (Literal) expr()    {}
func (BinaryExpr) expr() {}

// SelectItem is one projection: an expression or an aggregate call.
type SelectItem struct {
	Star    bool
	AggFn   string // "", "count", "sum", "min", "max", "avg"
	AggStar bool   // COUNT(*)
	Expr    Expr
}

// JoinClause is one INNER JOIN ... ON a.x = b.y.
type JoinClause struct {
	Table string
	OnL   ColumnRef
	OnR   ColumnRef
}

// OrderItem is one ORDER BY element.
type OrderItem struct {
	Col  ColumnRef
	Desc bool
}

// SelectStmt is SELECT ... FROM ... [JOIN ...] [WHERE] [GROUP BY] [ORDER BY]
// [LIMIT].
type SelectStmt struct {
	Items   []SelectItem
	From    string
	Joins   []JoinClause
	Where   Expr
	GroupBy []ColumnRef
	OrderBy []OrderItem
	Limit   int // 0 = none
}

// InsertStmt is INSERT INTO t VALUES (...), (...).
type InsertStmt struct {
	Table string
	Rows  [][]Literal
}

// UpdateStmt is UPDATE t SET col = expr, ... [WHERE pred].
type UpdateStmt struct {
	Table string
	Set   []struct {
		Col  string
		Expr Expr
	}
	Where Expr
}

// DeleteStmt is DELETE FROM t [WHERE pred].
type DeleteStmt struct {
	Table string
	Where Expr
}

// CreateTableStmt is CREATE TABLE t (col TYPE, ...).
type CreateTableStmt struct {
	Table   string
	Columns []struct {
		Name string
		Type string // "int", "bigint", "float", "double", "varchar"
	}
}

// CreateIndexStmt is CREATE [UNIQUE] INDEX name ON t (cols) [WITH (threads=N)].
type CreateIndexStmt struct {
	Name    string
	Table   string
	Columns []string
	Unique  bool
	Threads int
}

// DropIndexStmt is DROP INDEX name.
type DropIndexStmt struct{ Name string }

func (SelectStmt) stmt()      {}
func (InsertStmt) stmt()      {}
func (UpdateStmt) stmt()      {}
func (DeleteStmt) stmt()      {}
func (CreateTableStmt) stmt() {}
func (CreateIndexStmt) stmt() {}
func (DropIndexStmt) stmt()   {}
