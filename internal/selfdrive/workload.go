package selfdrive

import (
	"sort"

	"mb2/internal/fold"
	"mb2/internal/plan"
	"mb2/internal/planner"
)

// Drive workload template names. The mix is TPC-C's read side, built by
// workload.TPCC's builders: order point lookups (workload.OrdersPoint), the
// stock-level range aggregate (workload.StockLevel), and the index-sensitive
// customer-by-last-name lookup (TPCC.CustomerByLastScan) whose share ramps
// over the run (the drift the forecaster picks up and the planner's index
// action exploits) — plus the loop's own analytic order-line scan.
const (
	tmplOrdersPoint    = "orders_point"
	tmplStockLevel     = "stock_level"
	tmplCustomerByLast = "customer_by_last"
	tmplOrderlineScan  = "orderline_scan"
)

// liveQuery is one query instance a session executes.
type liveQuery struct {
	name string
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
