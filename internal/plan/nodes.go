package plan

import (
	"mb2/internal/storage"
)

// Estimates carries the optimizer's cardinality estimates for one node: the
// error-prone inputs MB2's models consume as features (Sec 3 limitations).
type Estimates struct {
	Rows     float64 // estimated output rows
	Distinct float64 // estimated distinct keys (joins, aggs, sorts)
}

// Node is one physical plan operator.
type Node interface {
	Children() []Node
	Est() Estimates
	Name() string
}

// SeqScanNode scans a table, optionally filtering and projecting.
type SeqScanNode struct {
	Table   string
	Filter  Expr  // nil means no predicate
	Project []int // nil means all columns
	Rows    Estimates
	// TableRows is the optimizer's estimate of the table's total size
	// (the scan reads everything; Rows is post-filter output).
	TableRows float64
}

// Children implements Node.
func (n *SeqScanNode) Children() []Node { return nil }

// Est implements Node.
func (n *SeqScanNode) Est() Estimates { return n.Rows }

// Name implements Node.
func (n *SeqScanNode) Name() string { return "SeqScan(" + n.Table + ")" }

// IdxScanNode looks rows up through an index: point (Eq) or range (Lo..Hi).
type IdxScanNode struct {
	Table string
	Index string
	// Eq, when set, is the point-lookup key; otherwise Lo/Hi bound a range
	// (either may be nil for an open end).
	Eq, Lo, Hi []storage.Value
	Filter     Expr
	Project    []int
	// Loops is the expected number of repeated invocations when the scan
	// runs inside a nested loop (the paper's caching-effect feature).
	Loops float64
	Rows  Estimates
}

// Children implements Node.
func (n *IdxScanNode) Children() []Node { return nil }

// Est implements Node.
func (n *IdxScanNode) Est() Estimates { return n.Rows }

// Name implements Node.
func (n *IdxScanNode) Name() string { return "IdxScan(" + n.Index + ")" }

// HashJoinNode joins Left (build side) and Right (probe side) on equality.
type HashJoinNode struct {
	Left, Right         Node
	LeftKeys, RightKeys []int
	Rows                Estimates // join output estimate; Distinct = build keys
}

// Children implements Node.
func (n *HashJoinNode) Children() []Node { return []Node{n.Left, n.Right} }

// Est implements Node.
func (n *HashJoinNode) Est() Estimates { return n.Rows }

// Name implements Node.
func (n *HashJoinNode) Name() string { return "HashJoin" }

// IndexJoinNode probes an index once per outer row (index nested-loop join).
type IndexJoinNode struct {
	Outer     Node
	Table     string
	Index     string
	OuterKeys []int // outer columns forming the index key
	Rows      Estimates
}

// Children implements Node.
func (n *IndexJoinNode) Children() []Node { return []Node{n.Outer} }

// Est implements Node.
func (n *IndexJoinNode) Est() Estimates { return n.Rows }

// Name implements Node.
func (n *IndexJoinNode) Name() string { return "IndexJoin(" + n.Index + ")" }

// AggFn is an aggregate function.
type AggFn int

// Aggregate functions.
const (
	Count AggFn = iota
	Sum
	Min
	Max
	Avg
)

// AggSpec is one aggregate expression.
type AggSpec struct {
	Fn  AggFn
	Arg Expr // ignored for Count
}

// AggNode is a hash aggregation: group by the given columns, compute Aggs.
// Output tuples are group columns followed by aggregate values.
type AggNode struct {
	Child   Node
	GroupBy []int
	Aggs    []AggSpec
	Rows    Estimates // Rows = estimated groups; Distinct same
}

// Children implements Node.
func (n *AggNode) Children() []Node { return []Node{n.Child} }

// Est implements Node.
func (n *AggNode) Est() Estimates { return n.Rows }

// Name implements Node.
func (n *AggNode) Name() string { return "Agg" }

// SortKey orders by one column.
type SortKey struct {
	Col  int
	Desc bool
}

// SortNode sorts its input, optionally truncating to Limit rows.
type SortNode struct {
	Child Node
	Keys  []SortKey
	Limit int // 0 means no limit
	Rows  Estimates
}

// Children implements Node.
func (n *SortNode) Children() []Node { return []Node{n.Child} }

// Est implements Node.
func (n *SortNode) Est() Estimates { return n.Rows }

// Name implements Node.
func (n *SortNode) Name() string { return "Sort" }

// ProjectNode computes expressions over its input.
type ProjectNode struct {
	Child Node
	Exprs []Expr
	Rows  Estimates
}

// Children implements Node.
func (n *ProjectNode) Children() []Node { return []Node{n.Child} }

// Est implements Node.
func (n *ProjectNode) Est() Estimates { return n.Rows }

// Name implements Node.
func (n *ProjectNode) Name() string { return "Project" }

// FilterNode applies a predicate to its input.
type FilterNode struct {
	Child Node
	Pred  Expr
	Rows  Estimates
}

// Children implements Node.
func (n *FilterNode) Children() []Node { return []Node{n.Child} }

// Est implements Node.
func (n *FilterNode) Est() Estimates { return n.Rows }

// Name implements Node.
func (n *FilterNode) Name() string { return "Filter" }

// InsertNode inserts literal rows into a table.
type InsertNode struct {
	Table  string
	Tuples []storage.Tuple
}

// Children implements Node.
func (n *InsertNode) Children() []Node { return nil }

// Est implements Node.
func (n *InsertNode) Est() Estimates { return Estimates{Rows: float64(len(n.Tuples))} }

// Name implements Node.
func (n *InsertNode) Name() string { return "Insert(" + n.Table + ")" }

// UpdateNode updates the rows produced by its child (which must be a scan
// over the target table so row identities are available). SetCols[i] is
// assigned SetExprs[i] evaluated over the old tuple.
type UpdateNode struct {
	Child    Node
	Table    string
	SetCols  []int
	SetExprs []Expr
	Rows     Estimates
}

// Children implements Node.
func (n *UpdateNode) Children() []Node { return []Node{n.Child} }

// Est implements Node.
func (n *UpdateNode) Est() Estimates { return n.Rows }

// Name implements Node.
func (n *UpdateNode) Name() string { return "Update(" + n.Table + ")" }

// DeleteNode deletes the rows produced by its child scan.
type DeleteNode struct {
	Child Node
	Table string
	Rows  Estimates
}

// Children implements Node.
func (n *DeleteNode) Children() []Node { return []Node{n.Child} }

// Est implements Node.
func (n *DeleteNode) Est() Estimates { return n.Rows }

// Name implements Node.
func (n *DeleteNode) Name() string { return "Delete(" + n.Table + ")" }

// OutputNode sends its child's rows to the client: the networking OU.
type OutputNode struct {
	Child Node
	Rows  Estimates
}

// Children implements Node.
func (n *OutputNode) Children() []Node { return []Node{n.Child} }

// Est implements Node.
func (n *OutputNode) Est() Estimates { return n.Rows }

// Name implements Node.
func (n *OutputNode) Name() string { return "Output" }

// MapChildren returns a shallow copy of n whose children are f of n's
// children, in Children order. Rewrites that replace part of a tree copy
// the path to the replaced part with it and share the rest, so the
// original tree is never written and stays valid.
func MapChildren(n Node, f func(Node) Node) Node {
	switch x := n.(type) {
	case *SeqScanNode:
		cp := *x
		return &cp
	case *IdxScanNode:
		cp := *x
		return &cp
	case *HashJoinNode:
		cp := *x
		cp.Left, cp.Right = f(x.Left), f(x.Right)
		return &cp
	case *IndexJoinNode:
		cp := *x
		cp.Outer = f(x.Outer)
		return &cp
	case *AggNode:
		cp := *x
		cp.Child = f(x.Child)
		return &cp
	case *SortNode:
		cp := *x
		cp.Child = f(x.Child)
		return &cp
	case *ProjectNode:
		cp := *x
		cp.Child = f(x.Child)
		return &cp
	case *FilterNode:
		cp := *x
		cp.Child = f(x.Child)
		return &cp
	case *InsertNode:
		cp := *x
		return &cp
	case *UpdateNode:
		cp := *x
		cp.Child = f(x.Child)
		return &cp
	case *DeleteNode:
		cp := *x
		cp.Child = f(x.Child)
		return &cp
	case *OutputNode:
		cp := *x
		cp.Child = f(x.Child)
		return &cp
	}
	panic("plan: MapChildren of unknown node type " + n.Name())
}

// Walk visits the plan tree depth-first, children before parents.
func Walk(n Node, fn func(Node)) {
	if n == nil {
		return
	}
	for _, c := range n.Children() {
		Walk(c, fn)
	}
	fn(n)
}
