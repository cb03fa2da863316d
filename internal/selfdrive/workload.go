package selfdrive

import (
	"sort"

	"mb2/internal/fold"
	"mb2/internal/plan"
	"mb2/internal/planner"
	"mb2/internal/storage"
)

// Drive workload template names. The mix is TPC-C's read side: order point
// lookups, the stock-level range aggregate, and the index-sensitive
// customer-by-last-name lookup whose share ramps over the run (the drift
// the forecaster picks up and the planner's index action exploits).
const (
	tmplOrdersPoint    = "orders_point"
	tmplStockLevel     = "stock_level"
	tmplCustomerByLast = "customer_by_last"
	tmplOrderlineScan  = "orderline_scan"
)

// tpccLastNames mirrors workload.TPCC's distinct C_LAST values.
const tpccLastNames = 100

// liveQuery is one query instance a session executes.
type liveQuery struct {
	name string
	fp   uint64
	node plan.Node
}

// nameHash is the FNV-1a hash every name-derived quantity (unit seeds,
// variant perturbations, synthetic volumes) comes from.
func nameHash(name string) uint64 { return fold.New().Str(name).Sum64() }

// unitSeed derives a unit's private seed from the run seed and the unit's
// identity (the PR 1 scheme: stable under any execution interleaving).
func unitSeed(seed int64, name string) int64 {
	return seed ^ int64(nameHash(name))
}

func est(rows, distinct float64) plan.Estimates {
	return plan.Estimates{Rows: rows, Distinct: distinct}
}

func ints(vals ...int64) []storage.Value {
	out := make([]storage.Value, len(vals))
	for i, v := range vals {
		out[i] = storage.NewInt(v)
	}
	return out
}

// ordersPoint looks one order up through its primary key.
func ordersPoint(w, d, o int64) plan.Node {
	return &plan.IdxScanNode{Table: "orders", Index: "orders_pk",
		Eq: ints(w, d, o), Rows: est(1, 1)}
}

// stockLevel aggregates recent order lines of a district (TPC-C
// StockLevel's shape).
func stockLevel(w, d, lo int64) plan.Node {
	return &plan.AggNode{
		Child: &plan.IdxScanNode{Table: "orderline", Index: "orderline_pk",
			Lo: ints(w, d, lo), Hi: ints(w, d, lo+20),
			Rows: est(200, 20)},
		GroupBy: []int{4},
		Aggs:    []plan.AggSpec{{Fn: plan.Count, Arg: plan.Col(4)}},
		Rows:    est(100, 100),
	}
}

// customerByLast scans customers by (warehouse, district, last name). It
// deliberately emits the sequential-scan form: the planner discovers the
// hot equality columns itself and its published index rewrites the plan.
func customerByLast(w, d, last int64, matches float64) plan.Node {
	return &plan.SeqScanNode{
		Table: "customer",
		Filter: plan.And{
			L: plan.Cmp{Op: plan.EQ, L: plan.Col(2), R: plan.IntConst(w)},
			R: plan.And{
				L: plan.Cmp{Op: plan.EQ, L: plan.Col(1), R: plan.IntConst(d)},
				R: plan.Cmp{Op: plan.EQ, L: plan.Col(3), R: plan.IntConst(last)},
			},
		},
		Rows: est(matches, matches),
	}
}

// orderlineScan is the analytic template: sum order-line amounts above a
// threshold per district. The range predicate means no index ever serves
// it, so it stays a sequential scan over the run's largest table — on a
// partitioned database, the standing parallel-scan volume that makes DOP
// and repartition actions worth weighing.
func orderlineScan(minAmount float64, rows float64) plan.Node {
	return &plan.AggNode{
		Child: &plan.SeqScanNode{Table: "orderline",
			Filter: plan.Cmp{Op: plan.GT, L: plan.Col(6), R: plan.FloatConst(minAmount)},
			Rows:   est(rows, rows)},
		GroupBy: []int{1},
		Aggs:    []plan.AggSpec{{Fn: plan.Sum, Arg: plan.Col(6)}},
		Rows:    est(10, 10),
	}
}

// rewritePublished rewrites a plan through every published index (no-op
// when none cover it).
func rewritePublished(n plan.Node, published []planner.IndexCandidate) plan.Node {
	for _, c := range published {
		n = c.Rewrite(n)
	}
	return n
}

// sortedTemplates returns the template names of a count map, sorted.
func sortedTemplates(counts map[string]float64) []string {
	out := make([]string, 0, len(counts))
	for name := range counts {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
