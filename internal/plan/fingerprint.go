package plan

import (
	"fmt"

	"mb2/internal/fold"
	"mb2/internal/storage"
)

// Fingerprint returns a deterministic structural hash of a plan: the
// identity the runtime prediction cache keys isolated OU-model predictions
// by. Two plans fingerprint equally iff they would translate into the same
// OU invocations against the same schema objects, so the hash covers node
// types, table/index names, predicate shapes, key constants, projections,
// and the optimizer estimates the translator turns into features. It does
// NOT cover the execution-mode knob or live catalog state (row counts,
// index sizes) — those vary independently of the plan and are handled by
// the cache's (mode, config-version) dimensions.
func Fingerprint(n Node) uint64 {
	h := fold.New()
	hashNode(&h, n)
	return h.Sum64()
}

// hashString folds a string behind its length, so adjacent fields cannot
// run together.
func hashString(h *fold.H, s string) { *h = h.U32(uint32(len(s))).Str(s) }

func hashFloat(h *fold.H, v float64) { *h = h.F64(v) }

func hashInts(h *fold.H, vs []int) {
	hashFloat(h, float64(len(vs)))
	for _, v := range vs {
		hashFloat(h, float64(v))
	}
}

func hashValues(h *fold.H, vs []storage.Value) {
	hashFloat(h, float64(len(vs)))
	for _, v := range vs {
		hashString(h, v.String())
	}
}

func hashExpr(h *fold.H, e Expr) {
	if e == nil {
		hashString(h, "<nil>")
		return
	}
	// Expression String() forms are canonical: they spell out operator,
	// column positions, and literal values.
	hashString(h, e.String())
}

func hashEst(h *fold.H, e Estimates) {
	hashFloat(h, e.Rows)
	hashFloat(h, e.Distinct)
}

func hashNode(h *fold.H, n Node) {
	if n == nil {
		hashString(h, "<nil-node>")
		return
	}
	switch v := n.(type) {
	case *SeqScanNode:
		hashString(h, "seqscan")
		hashString(h, v.Table)
		hashExpr(h, v.Filter)
		hashInts(h, v.Project)
		hashEst(h, v.Rows)
		hashFloat(h, v.TableRows)
	case *IdxScanNode:
		hashString(h, "idxscan")
		hashString(h, v.Table)
		hashString(h, v.Index)
		hashValues(h, v.Eq)
		hashValues(h, v.Lo)
		hashValues(h, v.Hi)
		hashExpr(h, v.Filter)
		hashInts(h, v.Project)
		hashFloat(h, v.Loops)
		hashEst(h, v.Rows)
	case *HashJoinNode:
		hashString(h, "hashjoin")
		hashInts(h, v.LeftKeys)
		hashInts(h, v.RightKeys)
		hashEst(h, v.Rows)
		hashNode(h, v.Left)
		hashNode(h, v.Right)
	case *IndexJoinNode:
		hashString(h, "indexjoin")
		hashString(h, v.Table)
		hashString(h, v.Index)
		hashInts(h, v.OuterKeys)
		hashEst(h, v.Rows)
		hashNode(h, v.Outer)
	case *AggNode:
		hashString(h, "agg")
		hashInts(h, v.GroupBy)
		hashFloat(h, float64(len(v.Aggs)))
		for _, a := range v.Aggs {
			hashFloat(h, float64(a.Fn))
			hashExpr(h, a.Arg)
		}
		hashEst(h, v.Rows)
		hashNode(h, v.Child)
	case *SortNode:
		hashString(h, "sort")
		hashFloat(h, float64(len(v.Keys)))
		for _, k := range v.Keys {
			hashFloat(h, float64(k.Col))
			if k.Desc {
				hashFloat(h, 1)
			} else {
				hashFloat(h, 0)
			}
		}
		hashFloat(h, float64(v.Limit))
		hashEst(h, v.Rows)
		hashNode(h, v.Child)
	case *ProjectNode:
		hashString(h, "project")
		hashFloat(h, float64(len(v.Exprs)))
		for _, e := range v.Exprs {
			hashExpr(h, e)
		}
		hashEst(h, v.Rows)
		hashNode(h, v.Child)
	case *FilterNode:
		hashString(h, "filter")
		hashExpr(h, v.Pred)
		hashEst(h, v.Rows)
		hashNode(h, v.Child)
	case *InsertNode:
		hashString(h, "insert")
		hashString(h, v.Table)
		hashFloat(h, float64(len(v.Tuples)))
		for _, t := range v.Tuples {
			hashFloat(h, float64(len(t)))
			for _, val := range t {
				hashString(h, val.String())
			}
		}
	case *UpdateNode:
		hashString(h, "update")
		hashString(h, v.Table)
		hashInts(h, v.SetCols)
		hashFloat(h, float64(len(v.SetExprs)))
		for _, e := range v.SetExprs {
			hashExpr(h, e)
		}
		hashEst(h, v.Rows)
		hashNode(h, v.Child)
	case *DeleteNode:
		hashString(h, "delete")
		hashString(h, v.Table)
		hashEst(h, v.Rows)
		hashNode(h, v.Child)
	case *OutputNode:
		hashString(h, "output")
		hashEst(h, v.Rows)
		hashNode(h, v.Child)
	default:
		// Unknown nodes hash by dynamic type so distinct kinds never
		// collide silently.
		hashString(h, fmt.Sprintf("%T", n))
	}
}
