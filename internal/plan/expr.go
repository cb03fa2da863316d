// Package plan defines physical query plans: expression trees and operator
// nodes with optimizer cardinality estimates. Plans are what the executor
// runs and what MB2's OU translator converts into model features (Sec 3);
// per the paper's assumptions, queries execute from cached plans, so plans
// are built directly rather than parsed from SQL.
package plan

import (
	"fmt"

	"mb2/internal/catalog"
	"mb2/internal/storage"
)

// Expr is a scalar expression over a tuple.
type Expr interface {
	// Eval computes the expression over the tuple.
	Eval(t storage.Tuple) storage.Value
	// Ops returns the scalar operation count of one evaluation, the work
	// volume of the arithmetic/filter OU.
	Ops() float64
	fmt.Stringer
}

// ColRef references a column by position.
type ColRef struct{ Idx int }

// Eval implements Expr.
func (c ColRef) Eval(t storage.Tuple) storage.Value { return t[c.Idx] }

// Ops implements Expr.
func (c ColRef) Ops() float64 { return 1 }

// String implements fmt.Stringer.
func (c ColRef) String() string { return fmt.Sprintf("col%d", c.Idx) }

// Const is a literal value.
type Const struct{ V storage.Value }

// Eval implements Expr.
func (c Const) Eval(storage.Tuple) storage.Value { return c.V }

// Ops implements Expr.
func (c Const) Ops() float64 { return 0 }

// String implements fmt.Stringer.
func (c Const) String() string { return c.V.String() }

// ArithOp is an arithmetic operator.
type ArithOp int

// Arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
)

var arithNames = [...]string{"+", "-", "*", "/"}

// Arith is a binary arithmetic expression. Mixed int/float operands promote
// to float.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// Eval implements Expr.
func (a Arith) Eval(t storage.Tuple) storage.Value {
	l, r := a.L.Eval(t), a.R.Eval(t)
	if l.Kind == catalog.Int64 && r.Kind == catalog.Int64 {
		switch a.Op {
		case Add:
			return storage.NewInt(l.I + r.I)
		case Sub:
			return storage.NewInt(l.I - r.I)
		case Mul:
			return storage.NewInt(l.I * r.I)
		default:
			if r.I == 0 {
				return storage.NewInt(0)
			}
			return storage.NewInt(l.I / r.I)
		}
	}
	lf, rf := l.AsFloat(), r.AsFloat()
	switch a.Op {
	case Add:
		return storage.NewFloat(lf + rf)
	case Sub:
		return storage.NewFloat(lf - rf)
	case Mul:
		return storage.NewFloat(lf * rf)
	default:
		if rf == 0 {
			return storage.NewFloat(0)
		}
		return storage.NewFloat(lf / rf)
	}
}

// Ops implements Expr.
func (a Arith) Ops() float64 { return a.L.Ops() + a.R.Ops() + 1 }

// String implements fmt.Stringer.
func (a Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", a.L, arithNames[a.Op], a.R)
}

// CmpOp is a comparison operator.
type CmpOp int

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

var cmpNames = [...]string{"=", "!=", "<", "<=", ">", ">="}

// Cmp is a boolean comparison producing an Int64 0/1.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Eval implements Expr.
func (c Cmp) Eval(t storage.Tuple) storage.Value {
	l, r := c.L.Eval(t), c.R.Eval(t)
	var cv int
	if l.Kind == r.Kind {
		cv = l.Compare(r)
	} else {
		lf, rf := l.AsFloat(), r.AsFloat()
		switch {
		case lf < rf:
			cv = -1
		case lf > rf:
			cv = 1
		}
	}
	ok := false
	switch c.Op {
	case EQ:
		ok = cv == 0
	case NE:
		ok = cv != 0
	case LT:
		ok = cv < 0
	case LE:
		ok = cv <= 0
	case GT:
		ok = cv > 0
	case GE:
		ok = cv >= 0
	}
	if ok {
		return storage.NewInt(1)
	}
	return storage.NewInt(0)
}

// Ops implements Expr.
func (c Cmp) Ops() float64 { return c.L.Ops() + c.R.Ops() + 1 }

// String implements fmt.Stringer.
func (c Cmp) String() string {
	return fmt.Sprintf("(%s %s %s)", c.L, cmpNames[c.Op], c.R)
}

// And is a boolean conjunction.
type And struct{ L, R Expr }

// Eval implements Expr.
func (a And) Eval(t storage.Tuple) storage.Value {
	if Truthy(a.L.Eval(t)) && Truthy(a.R.Eval(t)) {
		return storage.NewInt(1)
	}
	return storage.NewInt(0)
}

// Ops implements Expr.
func (a And) Ops() float64 { return a.L.Ops() + a.R.Ops() + 1 }

// String implements fmt.Stringer.
func (a And) String() string { return fmt.Sprintf("(%s AND %s)", a.L, a.R) }

// Or is a boolean disjunction.
type Or struct{ L, R Expr }

// Eval implements Expr.
func (o Or) Eval(t storage.Tuple) storage.Value {
	if Truthy(o.L.Eval(t)) || Truthy(o.R.Eval(t)) {
		return storage.NewInt(1)
	}
	return storage.NewInt(0)
}

// Ops implements Expr.
func (o Or) Ops() float64 { return o.L.Ops() + o.R.Ops() + 1 }

// String implements fmt.Stringer.
func (o Or) String() string { return fmt.Sprintf("(%s OR %s)", o.L, o.R) }

// Truthy interprets a value as a boolean.
func Truthy(v storage.Value) bool {
	if v.Kind == catalog.Float64 {
		return v.Float() != 0
	}
	return v.I != 0
}

// Col is shorthand for a column reference.
func Col(i int) Expr { return ColRef{Idx: i} }

// IntConst is shorthand for an integer literal.
func IntConst(v int64) Expr { return Const{V: storage.NewInt(v)} }

// FloatConst is shorthand for a float literal.
func FloatConst(v float64) Expr { return Const{V: storage.NewFloat(v)} }

// StrConst is shorthand for a string literal.
func StrConst(v string) Expr { return Const{V: storage.NewString(v)} }
