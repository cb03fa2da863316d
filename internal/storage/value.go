// Package storage implements the in-memory MVCC storage engine: typed
// values, tuples, and version-chained tables (the paper's target system is
// an in-memory MVCC DBMS, Sec 3).
package storage

import (
	"fmt"
	"math"

	"mb2/internal/catalog"
)

// Value is one typed attribute value, four machine words (32 bytes): Kind,
// I and S. An Int64 value keeps its integer in I; a Float64 value keeps its
// IEEE-754 bits in I, written by NewFloat and read back only through Float;
// a Varchar value keeps its text in S. No value uses more than one of I and
// S, so a tuple costs 32 bytes per attribute however its kinds mix.
type Value struct {
	Kind catalog.Type
	I    int64
	S    string
}

// NewInt returns an Int64 value.
func NewInt(v int64) Value { return Value{Kind: catalog.Int64, I: v} }

// NewFloat returns a Float64 value.
func NewFloat(v float64) Value {
	return Value{Kind: catalog.Float64, I: int64(math.Float64bits(v))}
}

// Float decodes a Float64 value's bits: the one place they become a
// float64 again. For any other kind the result is meaningless.
func (v Value) Float() float64 { return math.Float64frombits(uint64(v.I)) }

// AsFloat widens a numeric value: a Float64 value's float, any other
// kind's I as a float64.
func (v Value) AsFloat() float64 {
	if v.Kind == catalog.Float64 {
		return v.Float()
	}
	return float64(v.I)
}

// NewString returns a Varchar value.
func NewString(v string) Value { return Value{Kind: catalog.Varchar, S: v} }

// Compare orders two values of the same kind: -1, 0, or 1.
func (v Value) Compare(o Value) int {
	switch v.Kind {
	case catalog.Int64:
		switch {
		case v.I < o.I:
			return -1
		case v.I > o.I:
			return 1
		}
		return 0
	case catalog.Float64:
		f, g := v.Float(), o.Float()
		switch {
		case f < g:
			return -1
		case f > g:
			return 1
		}
		return 0
	default:
		switch {
		case v.S < o.S:
			return -1
		case v.S > o.S:
			return 1
		}
		return 0
	}
}

// String implements fmt.Stringer.
func (v Value) String() string {
	switch v.Kind {
	case catalog.Int64:
		return fmt.Sprintf("%d", v.I)
	case catalog.Float64:
		return fmt.Sprintf("%g", v.Float())
	default:
		return v.S
	}
}

// Bytes returns the modeled width of the value.
func (v Value) Bytes() int {
	if v.Kind == catalog.Varchar {
		if n := len(v.S); n > 0 {
			return n
		}
		return catalog.Varchar.Width()
	}
	return 8
}

// Tuple is one row.
type Tuple []Value

// Clone deep-copies the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Bytes returns the modeled width of the tuple.
func (t Tuple) Bytes() int {
	total := 0
	for _, v := range t {
		total += v.Bytes()
	}
	return total
}
