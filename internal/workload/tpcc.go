package workload

import (
	"math/rand"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/plan"
	"mb2/internal/runner"
	"mb2/internal/storage"
)

// TPCC is the order-processing OLTP benchmark: nine tables and five
// transaction types. Scale is the number of warehouses. CustomersPerDistrict
// defaults to 300 (the paper raises it to 50k in Sec 8.7 to make the
// CUSTOMER secondary index decisive; our scale-down keeps the ratio).
type TPCC struct {
	CustomersPerDistrict int
	// ForceCustomerIndex overrides index-presence detection when building
	// customer-by-last-name plans: the planner uses it to construct
	// what-if plans for an index that does not exist yet (or to pretend a
	// built index is absent).
	ForceCustomerIndex *bool
}

// Name implements Benchmark.
func (TPCC) Name() string { return "tpcc" }

// TPC-C shape constants.
const (
	tpccDistricts  = 10
	tpccItems      = 1000
	tpccOlPerOrder = 10
)

func (b TPCC) custPerDistrict() int {
	if b.CustomersPerDistrict > 0 {
		return b.CustomersPerDistrict
	}
	return 300
}

// TPCCLastNames is the number of distinct C_LAST values per district.
const TPCCLastNames = 100

// Column positions used by the transaction plans.
const (
	custID      = 0 // customer: c_id, c_d_id, c_w_id, c_last, c_balance, c_ytd_payment, c_payment_cnt
	custDID     = 1
	custWID     = 2
	custLast    = 3
	custBalance = 4
)

// tpccSchema is TPC-C's nine tables and the primary-key indexes of all but
// history (non-unique, built in this order).
var tpccSchema = Schema{
	Tables: []Table{
		{"warehouse", []catalog.Column{ic("w_id"), fc("w_tax"), fc("w_ytd")}},
		{"district", []catalog.Column{ic("d_id"), ic("d_w_id"), fc("d_tax"), fc("d_ytd"), ic("d_next_o_id")}},
		{"customer", []catalog.Column{ic("c_id"), ic("c_d_id"), ic("c_w_id"), ic("c_last"), fc("c_balance"), fc("c_ytd_payment"), ic("c_payment_cnt")}},
		{"history", []catalog.Column{ic("h_c_id"), ic("h_d_id"), ic("h_w_id"), fc("h_amount")}},
		{"neworder", []catalog.Column{ic("no_o_id"), ic("no_d_id"), ic("no_w_id")}},
		{"orders", []catalog.Column{ic("o_id"), ic("o_d_id"), ic("o_w_id"), ic("o_c_id"), ic("o_ol_cnt")}},
		{"orderline", []catalog.Column{ic("ol_o_id"), ic("ol_d_id"), ic("ol_w_id"), ic("ol_number"), ic("ol_i_id"), fc("ol_quantity"), fc("ol_amount")}},
		{"item", []catalog.Column{ic("i_id"), fc("i_price"), ic("i_name")}},
		{"stock", []catalog.Column{ic("s_i_id"), ic("s_w_id"), fc("s_quantity"), fc("s_ytd")}},
	},
	Indexes: []Index{
		{"warehouse_pk", "warehouse", []string{"w_id"}},
		{"district_pk", "district", []string{"d_w_id", "d_id"}},
		{"customer_pk", "customer", []string{"c_w_id", "c_d_id", "c_id"}},
		{"item_pk", "item", []string{"i_id"}},
		{"stock_pk", "stock", []string{"s_w_id", "s_i_id"}},
		{"orders_pk", "orders", []string{"o_w_id", "o_d_id", "o_id"}},
		{"orderline_pk", "orderline", []string{"ol_w_id", "ol_d_id", "ol_o_id"}},
		{"neworder_pk", "neworder", []string{"no_w_id", "no_d_id", "no_o_id"}},
	},
}

// Load implements Benchmark.
func (b TPCC) Load(db *engine.DB, scale float64, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	warehouses := int(scale)
	if warehouses < 1 {
		warehouses = 1
	}
	cpd := b.custPerDistrict()

	if err := tpccSchema.createTables(db); err != nil {
		return err
	}

	var rows []storage.Tuple
	for w := 0; w < warehouses; w++ {
		rows = append(rows, storage.Tuple{storage.NewInt(int64(w)),
			storage.NewFloat(rng.Float64() * 0.2), storage.NewFloat(300000)})
	}
	if err := db.BulkLoad("warehouse", rows); err != nil {
		return err
	}

	rows = nil
	for w := 0; w < warehouses; w++ {
		for d := 0; d < tpccDistricts; d++ {
			rows = append(rows, storage.Tuple{storage.NewInt(int64(d)), storage.NewInt(int64(w)),
				storage.NewFloat(rng.Float64() * 0.2), storage.NewFloat(30000),
				storage.NewInt(int64(cpd))})
		}
	}
	if err := db.BulkLoad("district", rows); err != nil {
		return err
	}

	rows = nil
	for w := 0; w < warehouses; w++ {
		for d := 0; d < tpccDistricts; d++ {
			for c := 0; c < cpd; c++ {
				rows = append(rows, storage.Tuple{
					storage.NewInt(int64(c)), storage.NewInt(int64(d)), storage.NewInt(int64(w)),
					storage.NewInt(pick(rng, TPCCLastNames)),
					storage.NewFloat(-10), storage.NewFloat(10), storage.NewInt(1),
				})
			}
		}
	}
	if err := db.BulkLoad("customer", rows); err != nil {
		return err
	}

	rows = nil
	for i := 0; i < tpccItems; i++ {
		rows = append(rows, storage.Tuple{storage.NewInt(int64(i)),
			storage.NewFloat(1 + rng.Float64()*100), storage.NewInt(int64(i))})
	}
	if err := db.BulkLoad("item", rows); err != nil {
		return err
	}

	rows = nil
	for w := 0; w < warehouses; w++ {
		for i := 0; i < tpccItems; i++ {
			rows = append(rows, storage.Tuple{storage.NewInt(int64(i)), storage.NewInt(int64(w)),
				storage.NewFloat(10 + rng.Float64()*90), storage.NewFloat(0)})
		}
	}
	if err := db.BulkLoad("stock", rows); err != nil {
		return err
	}

	// Initial orders, order lines, and new orders: one order per customer.
	var orders, orderlines, neworders []storage.Tuple
	for w := 0; w < warehouses; w++ {
		for d := 0; d < tpccDistricts; d++ {
			for o := 0; o < cpd; o++ {
				orders = append(orders, storage.Tuple{
					storage.NewInt(int64(o)), storage.NewInt(int64(d)), storage.NewInt(int64(w)),
					storage.NewInt(int64(o)), storage.NewInt(tpccOlPerOrder)})
				for l := 0; l < tpccOlPerOrder; l++ {
					orderlines = append(orderlines, storage.Tuple{
						storage.NewInt(int64(o)), storage.NewInt(int64(d)), storage.NewInt(int64(w)),
						storage.NewInt(int64(l)), storage.NewInt(pick(rng, tpccItems)),
						storage.NewFloat(5), storage.NewFloat(rng.Float64() * 10000)})
				}
				if o >= cpd*2/3 {
					neworders = append(neworders, storage.Tuple{
						storage.NewInt(int64(o)), storage.NewInt(int64(d)), storage.NewInt(int64(w))})
				}
			}
		}
	}
	if err := db.BulkLoad("orders", orders); err != nil {
		return err
	}
	if err := db.BulkLoad("orderline", orderlines); err != nil {
		return err
	}
	if err := db.BulkLoad("neworder", neworders); err != nil {
		return err
	}

	// Primary-key indexes (single-threaded builds at load time).
	return tpccSchema.createIndexes(db)
}

// CustomerSecondaryIndex is the (C_W_ID, C_D_ID, C_LAST) index whose
// creation is the paper's running self-driving action example (Figs 1, 11).
const CustomerSecondaryIndex = "customer_secondary"

// CustomerSecondaryKeyCols returns the secondary index's key columns.
func CustomerSecondaryKeyCols() []string { return []string{"c_w_id", "c_d_id", "c_last"} }

// customerByLastPlan looks up customers by last name within a district: it
// uses the secondary index when it exists, otherwise a sequential scan —
// the plan difference that makes the index's benefit measurable.
func (b TPCC) customerByLastPlan(db *engine.DB, w, d, last int64) plan.Node {
	useIndex := db.Index(CustomerSecondaryIndex) != nil
	if b.ForceCustomerIndex != nil {
		useIndex = *b.ForceCustomerIndex
	}
	if !useIndex {
		return b.CustomerByLastScan(w, d, last)
	}
	matches := b.customerMatches()
	return &plan.IdxScanNode{
		Table: "customer", Index: CustomerSecondaryIndex,
		Eq:   keys(w, d, last),
		Rows: est(matches, matches),
	}
}

// customerMatches estimates a by-last-name lookup's matching rows.
func (b TPCC) customerMatches() float64 {
	return float64(b.custPerDistrict()) / TPCCLastNames
}

// CustomerByLastScan scans customers by (warehouse, district, last name):
// the sequential-scan form of the index-sensitive lookup, whose equality
// columns a planner can discover and serve with an index.
func (b TPCC) CustomerByLastScan(w, d, last int64) plan.Node {
	matches := b.customerMatches()
	return &plan.SeqScanNode{
		Table: "customer",
		Filter: plan.And{
			L: plan.Cmp{Op: plan.EQ, L: plan.Col(custWID), R: plan.IntConst(w)},
			R: plan.And{
				L: plan.Cmp{Op: plan.EQ, L: plan.Col(custDID), R: plan.IntConst(d)},
				R: plan.Cmp{Op: plan.EQ, L: plan.Col(custLast), R: plan.IntConst(last)},
			},
		},
		Rows: est(matches, matches),
	}
}

// OrdersPoint looks one order up through its primary key (OrderStatus's
// order read).
func OrdersPoint(w, d, o int64) plan.Node {
	return &plan.IdxScanNode{Table: "orders", Index: "orders_pk", Eq: keys(w, d, o), Rows: est(1, 1)}
}

// StockLevel counts the items of a district's order lines for the twenty
// orders from lo on (StockLevel's range aggregate).
func StockLevel(w, d, lo int64) plan.Node {
	return &plan.AggNode{
		Child: &plan.IdxScanNode{Table: "orderline", Index: "orderline_pk",
			Lo:   keys(w, d, lo),
			Hi:   keys(w, d, lo+20),
			Rows: est(20*tpccOlPerOrder, 20)},
		GroupBy: []int{4},
		Aggs:    []plan.AggSpec{{Fn: plan.Count, Arg: plan.Col(4)}},
		Rows:    est(100, 100),
	}
}

// keys builds an integer index key.
func keys(vals ...int64) []storage.Value {
	out := make([]storage.Value, len(vals))
	for i, v := range vals {
		out[i] = storage.NewInt(v)
	}
	return out
}

// Procedure is one transaction type: Make builds the plan sequence for a
// single invocation (executed inside one transaction).
type Procedure struct {
	Name string
	Make func(db *engine.DB, rng *rand.Rand) []plan.Node
}

// Procedures returns TPC-C's five transaction types.
func (b TPCC) Procedures() []Procedure {
	cpd := b.custPerDistrict()
	point := func(table, index string, vals ...int64) *plan.IdxScanNode {
		return &plan.IdxScanNode{Table: table, Index: index, Eq: keys(vals...), Rows: est(1, 1)}
	}

	newOrder := Procedure{Name: "NewOrder",
		Make: func(db *engine.DB, rng *rand.Rand) []plan.Node {
			w := pick(rng, int(db.RowCount("warehouse")))
			d := pick(rng, tpccDistricts)
			c := pick(rng, cpd)
			o := int64(cpd) + pick(rng, 1<<30)
			var plans []plan.Node
			plans = append(plans,
				point("warehouse", "warehouse_pk", w),
				&plan.UpdateNode{
					Child: point("district", "district_pk", w, d), Table: "district",
					SetCols:  []int{4},
					SetExprs: []plan.Expr{plan.Arith{Op: plan.Add, L: plan.Col(4), R: plan.IntConst(1)}},
					Rows:     est(1, 1),
				},
				point("customer", "customer_pk", w, d, c),
				&plan.InsertNode{Table: "orders", Tuples: []storage.Tuple{{
					storage.NewInt(o), storage.NewInt(d), storage.NewInt(w),
					storage.NewInt(c), storage.NewInt(tpccOlPerOrder)}}},
				&plan.InsertNode{Table: "neworder", Tuples: []storage.Tuple{{
					storage.NewInt(o), storage.NewInt(d), storage.NewInt(w)}}},
			)
			var olRows []storage.Tuple
			for l := 0; l < tpccOlPerOrder; l++ {
				item := pick(rng, tpccItems)
				plans = append(plans,
					point("item", "item_pk", item),
					&plan.UpdateNode{
						Child: point("stock", "stock_pk", w, item), Table: "stock",
						SetCols:  []int{2},
						SetExprs: []plan.Expr{plan.Arith{Op: plan.Sub, L: plan.Col(2), R: plan.FloatConst(5)}},
						Rows:     est(1, 1),
					})
				olRows = append(olRows, storage.Tuple{
					storage.NewInt(o), storage.NewInt(d), storage.NewInt(w),
					storage.NewInt(int64(l)), storage.NewInt(item),
					storage.NewFloat(5), storage.NewFloat(rng.Float64() * 10000)})
			}
			plans = append(plans, &plan.InsertNode{Table: "orderline", Tuples: olRows})
			return plans
		}}

	payment := Procedure{Name: "Payment",
		Make: func(db *engine.DB, rng *rand.Rand) []plan.Node {
			w := pick(rng, int(db.RowCount("warehouse")))
			d := pick(rng, tpccDistricts)
			last := pick(rng, TPCCLastNames)
			amount := 1 + rng.Float64()*4999
			return []plan.Node{
				&plan.UpdateNode{
					Child: point("warehouse", "warehouse_pk", w), Table: "warehouse",
					SetCols:  []int{2},
					SetExprs: []plan.Expr{plan.Arith{Op: plan.Add, L: plan.Col(2), R: plan.FloatConst(amount)}},
					Rows:     est(1, 1),
				},
				&plan.UpdateNode{
					Child: point("district", "district_pk", w, d), Table: "district",
					SetCols:  []int{3},
					SetExprs: []plan.Expr{plan.Arith{Op: plan.Add, L: plan.Col(3), R: plan.FloatConst(amount)}},
					Rows:     est(1, 1),
				},
				// Customer selected by last name: the index-sensitive query.
				&plan.UpdateNode{
					Child: b.customerByLastPlan(db, w, d, last), Table: "customer",
					SetCols: []int{custBalance, 5, 6},
					SetExprs: []plan.Expr{
						plan.Arith{Op: plan.Sub, L: plan.Col(custBalance), R: plan.FloatConst(amount)},
						plan.Arith{Op: plan.Add, L: plan.Col(5), R: plan.FloatConst(amount)},
						plan.Arith{Op: plan.Add, L: plan.Col(6), R: plan.IntConst(1)},
					},
					Rows: est(float64(cpd)/TPCCLastNames, 1),
				},
				&plan.InsertNode{Table: "history", Tuples: []storage.Tuple{{
					storage.NewInt(pick(rng, cpd)), storage.NewInt(d), storage.NewInt(w),
					storage.NewFloat(amount)}}},
			}
		}}

	orderStatus := Procedure{Name: "OrderStatus",
		Make: func(db *engine.DB, rng *rand.Rand) []plan.Node {
			w := pick(rng, int(db.RowCount("warehouse")))
			d := pick(rng, tpccDistricts)
			last := pick(rng, TPCCLastNames)
			o := pick(rng, cpd)
			return []plan.Node{
				b.customerByLastPlan(db, w, d, last),
				OrdersPoint(w, d, o),
				&plan.IdxScanNode{Table: "orderline", Index: "orderline_pk",
					Eq:   keys(w, d, o),
					Rows: est(tpccOlPerOrder, 1)},
			}
		}}

	delivery := Procedure{Name: "Delivery",
		Make: func(db *engine.DB, rng *rand.Rand) []plan.Node {
			w := pick(rng, int(db.RowCount("warehouse")))
			d := pick(rng, tpccDistricts)
			o := int64(cpd)*2/3 + pick(rng, cpd/3)
			c := pick(rng, cpd)
			return []plan.Node{
				&plan.DeleteNode{
					Child: point("neworder", "neworder_pk", w, d, o), Table: "neworder",
					Rows: est(1, 1),
				},
				&plan.AggNode{
					Child: &plan.IdxScanNode{Table: "orderline", Index: "orderline_pk",
						Eq:   keys(w, d, o),
						Rows: est(tpccOlPerOrder, 1)},
					GroupBy: nil,
					Aggs:    []plan.AggSpec{{Fn: plan.Sum, Arg: plan.Col(6)}},
					Rows:    est(1, 1),
				},
				&plan.UpdateNode{
					Child: point("customer", "customer_pk", w, d, c), Table: "customer",
					SetCols:  []int{custBalance},
					SetExprs: []plan.Expr{plan.Arith{Op: plan.Add, L: plan.Col(custBalance), R: plan.FloatConst(100)}},
					Rows:     est(1, 1),
				},
			}
		}}

	stockLevel := Procedure{Name: "StockLevel",
		Make: func(db *engine.DB, rng *rand.Rand) []plan.Node {
			w := pick(rng, int(db.RowCount("warehouse")))
			d := pick(rng, tpccDistricts)
			lo := pick(rng, cpd*3/4)
			return []plan.Node{
				point("district", "district_pk", w, d),
				StockLevel(w, d, lo),
			}
		}}

	return []Procedure{newOrder, payment, orderStatus, delivery, stockLevel}
}

// Templates implements Benchmark: one representative instance of each
// index-independent query in the transaction mix, for query-level runtime
// prediction (Fig 7b).
func (b TPCC) Templates(db *engine.DB, seed int64) []runner.QueryTemplate {
	return readTemplates(b.Procedures(), db, seed)
}

// readTemplates makes one seeded invocation of each procedure and keeps its
// read-only statements — the repeatable ones — as templates named
// Procedure#position.
func readTemplates(procs []Procedure, db *engine.DB, seed int64) []runner.QueryTemplate {
	rng := rand.New(rand.NewSource(seed))
	var out []runner.QueryTemplate
	for _, p := range procs {
		for i, pl := range p.Make(db, rng) {
			switch pl.(type) {
			case *plan.UpdateNode, *plan.DeleteNode, *plan.InsertNode:
				continue
			}
			out = append(out, runner.QueryTemplate{Name: p.Name + "#" + string(rune('0'+i)), Plan: pl})
		}
	}
	return out
}
