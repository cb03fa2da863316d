package workload

import (
	"math/rand"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/plan"
	"mb2/internal/runner"
	"mb2/internal/storage"
)

// TPCH is the OLAP benchmark: eight tables and a representative subset of
// the analytical query templates. Scale 1.0 corresponds to the paper's
// "1 GB" dataset, reduced 100x so experiments stay laptop-scale (60k
// lineitem rows); the 0.1/1/10 scale ratios of Figs 7-8 are preserved.
type TPCH struct{}

// Name implements Benchmark.
func (TPCH) Name() string { return "tpch" }

// Row-count bases at scale 1.0.
const (
	tpchLineitem = 60000
	tpchOrders   = 15000
	tpchCustomer = 1500
	tpchPart     = 2000
	tpchPartsupp = 8000
	tpchSupplier = 100
	tpchNation   = 25
	tpchRegion   = 5
	tpchDays     = 2400 // order/ship dates span ~6.5 years, as in TPC-H
)

// tpchSchema is TPC-H's eight tables; the analytic templates scan them, so
// they carry no index.
var tpchSchema = Schema{Tables: []Table{
	{"region", []catalog.Column{ic("r_regionkey"), ic("r_name")}},
	{"nation", []catalog.Column{ic("n_nationkey"), ic("n_regionkey"), ic("n_name")}},
	{"supplier", []catalog.Column{ic("s_suppkey"), ic("s_nationkey"), fc("s_acctbal")}},
	{"customer", []catalog.Column{ic("c_custkey"), ic("c_nationkey"), fc("c_acctbal"), ic("c_mktsegment")}},
	{"part", []catalog.Column{ic("p_partkey"), ic("p_type"), fc("p_retailprice"), ic("p_brand")}},
	{"partsupp", []catalog.Column{ic("ps_partkey"), ic("ps_suppkey"), fc("ps_supplycost"), ic("ps_availqty")}},
	{"orders", []catalog.Column{ic("o_orderkey"), ic("o_custkey"), ic("o_orderdate"), fc("o_totalprice"), ic("o_orderpriority")}},
	{"lineitem", []catalog.Column{ic("l_orderkey"), ic("l_partkey"), ic("l_suppkey"), fc("l_quantity"), fc("l_extendedprice"), fc("l_discount"), ic("l_shipdate"), ic("l_returnflag"), ic("l_linestatus")}},
}}

// Load implements Benchmark.
func (TPCH) Load(db *engine.DB, scale float64, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	n := func(base int) int {
		v := int(float64(base) * scale)
		if v < 1 {
			v = 1
		}
		return v
	}

	if err := tpchSchema.createTables(db); err != nil {
		return err
	}

	load := func(name string, rows int, gen func(i int) storage.Tuple) error {
		data := make([]storage.Tuple, rows)
		for i := 0; i < rows; i++ {
			data[i] = gen(i)
		}
		return db.BulkLoad(name, data)
	}

	if err := load("region", tpchRegion, func(i int) storage.Tuple {
		return storage.Tuple{storage.NewInt(int64(i)), storage.NewInt(int64(i))}
	}); err != nil {
		return err
	}
	if err := load("nation", tpchNation, func(i int) storage.Tuple {
		return storage.Tuple{storage.NewInt(int64(i)), storage.NewInt(int64(i % tpchRegion)), storage.NewInt(int64(i))}
	}); err != nil {
		return err
	}
	nSupp := n(tpchSupplier)
	if err := load("supplier", nSupp, func(i int) storage.Tuple {
		return storage.Tuple{storage.NewInt(int64(i)), storage.NewInt(pick(rng, tpchNation)),
			storage.NewFloat(rng.Float64() * 10000)}
	}); err != nil {
		return err
	}
	nCust := n(tpchCustomer)
	if err := load("customer", nCust, func(i int) storage.Tuple {
		return storage.Tuple{storage.NewInt(int64(i)), storage.NewInt(pick(rng, tpchNation)),
			storage.NewFloat(rng.Float64() * 10000), storage.NewInt(pick(rng, 5))}
	}); err != nil {
		return err
	}
	nPart := n(tpchPart)
	if err := load("part", nPart, func(i int) storage.Tuple {
		return storage.Tuple{storage.NewInt(int64(i)), storage.NewInt(pick(rng, 150)),
			storage.NewFloat(900 + rng.Float64()*1200), storage.NewInt(pick(rng, 25))}
	}); err != nil {
		return err
	}
	if err := load("partsupp", n(tpchPartsupp), func(i int) storage.Tuple {
		return storage.Tuple{storage.NewInt(int64(i % nPart)), storage.NewInt(pick(rng, int(nSupp))),
			storage.NewFloat(rng.Float64() * 1000), storage.NewInt(pick(rng, 10000))}
	}); err != nil {
		return err
	}
	nOrders := n(tpchOrders)
	if err := load("orders", nOrders, func(i int) storage.Tuple {
		return storage.Tuple{storage.NewInt(int64(i)), storage.NewInt(pick(rng, nCust)),
			storage.NewInt(pick(rng, tpchDays)), storage.NewFloat(rng.Float64() * 400000),
			storage.NewInt(pick(rng, 5))}
	}); err != nil {
		return err
	}
	nLine := n(tpchLineitem)
	if err := load("lineitem", nLine, func(i int) storage.Tuple {
		return storage.Tuple{
			storage.NewInt(pick(rng, nOrders)),
			storage.NewInt(pick(rng, nPart)),
			storage.NewInt(pick(rng, int(nSupp))),
			storage.NewFloat(1 + rng.Float64()*49),
			storage.NewFloat(900 + rng.Float64()*100000),
			storage.NewFloat(rng.Float64() * 0.1),
			storage.NewInt(pick(rng, tpchDays)),
			storage.NewInt(pick(rng, 3)),
			storage.NewInt(pick(rng, 2)),
		}
	}); err != nil {
		return err
	}
	return nil
}

// Templates implements Benchmark: a representative subset of the TPC-H
// query suite as cached physical plans.
func (TPCH) Templates(db *engine.DB, seed int64) []runner.QueryTemplate {
	lrows := db.RowCount("lineitem")
	orows := db.RowCount("orders")
	crows := db.RowCount("customer")
	prows := db.RowCount("part")
	srows := db.RowCount("supplier")

	out := func(child plan.Node, rows float64) plan.Node {
		return &plan.OutputNode{Child: child, Rows: est(rows, rows)}
	}

	// Q1: pricing summary report — scan, filter on shipdate, wide agg.
	q1Sel := 0.95
	q1 := out(&plan.AggNode{
		Child: &plan.SeqScanNode{
			Table:  "lineitem",
			Filter: plan.Cmp{Op: plan.LE, L: plan.Col(6), R: plan.IntConst(int64(tpchDays * 95 / 100))},
			Rows:   est(lrows*q1Sel, 6),
		},
		GroupBy: []int{7, 8},
		Aggs: []plan.AggSpec{
			{Fn: plan.Sum, Arg: plan.Col(3)},
			{Fn: plan.Sum, Arg: plan.Col(4)},
			{Fn: plan.Sum, Arg: plan.Arith{Op: plan.Mul, L: plan.Col(4),
				R: plan.Arith{Op: plan.Sub, L: plan.FloatConst(1), R: plan.Col(5)}}},
			{Fn: plan.Avg, Arg: plan.Col(3)},
			{Fn: plan.Count, Arg: plan.Col(0)},
		},
		Rows: est(6, 6),
	}, 6)

	// Q3: shipping priority — customer ⋈ orders ⋈ lineitem, agg, top-10.
	custSel := 0.2 // one of five market segments
	dateSel := 0.5
	q3CustScan := &plan.SeqScanNode{Table: "customer",
		Filter: plan.Cmp{Op: plan.EQ, L: plan.Col(3), R: plan.IntConst(1)},
		Rows:   est(crows*custSel, crows*custSel)}
	q3OrderScan := &plan.SeqScanNode{Table: "orders",
		Filter: plan.Cmp{Op: plan.LT, L: plan.Col(2), R: plan.IntConst(tpchDays / 2)},
		Rows:   est(orows*dateSel, orows*dateSel)}
	q3Join1 := &plan.HashJoinNode{
		Left: q3CustScan, Right: q3OrderScan,
		LeftKeys: []int{0}, RightKeys: []int{1},
		Rows: est(orows*dateSel*custSel, crows*custSel),
	}
	// Joined schema: customer(4 cols) + orders(5 cols); o_orderkey at 4.
	q3Join2 := &plan.HashJoinNode{
		Left: q3Join1,
		Right: &plan.SeqScanNode{Table: "lineitem",
			Filter: plan.Cmp{Op: plan.GE, L: plan.Col(6), R: plan.IntConst(tpchDays / 2)},
			Rows:   est(lrows*dateSel, orows)},
		LeftKeys: []int{4}, RightKeys: []int{0},
		Rows: est(lrows*dateSel*custSel*dateSel, orows*dateSel*custSel),
	}
	q3 := out(&plan.SortNode{
		Child: &plan.AggNode{
			Child:   q3Join2,
			GroupBy: []int{4},
			Aggs: []plan.AggSpec{{Fn: plan.Sum, Arg: plan.Arith{Op: plan.Mul,
				L: plan.Col(13), R: plan.Arith{Op: plan.Sub, L: plan.FloatConst(1), R: plan.Col(14)}}}},
			Rows: est(orows*dateSel*custSel, orows*dateSel*custSel),
		},
		Keys:  []plan.SortKey{{Col: 1, Desc: true}},
		Limit: 10,
		Rows:  est(10, 10),
	}, 10)

	// Q5: local supplier volume — supplier ⋈ lineitem, agg by nation.
	q5Join := &plan.HashJoinNode{
		Left: &plan.SeqScanNode{Table: "supplier", Rows: est(srows, srows)},
		Right: &plan.SeqScanNode{Table: "lineitem",
			Filter: plan.Cmp{Op: plan.LT, L: plan.Col(6), R: plan.IntConst(tpchDays / 3)},
			Rows:   est(lrows/3, srows)},
		LeftKeys: []int{0}, RightKeys: []int{2},
		Rows: est(lrows/3, srows),
	}
	q5 := out(&plan.AggNode{
		Child:   q5Join,
		GroupBy: []int{1}, // s_nationkey
		Aggs: []plan.AggSpec{{Fn: plan.Sum, Arg: plan.Arith{Op: plan.Mul,
			L: plan.Col(7), R: plan.Arith{Op: plan.Sub, L: plan.FloatConst(1), R: plan.Col(8)}}}},
		Rows: est(tpchNation, tpchNation),
	}, tpchNation)

	// Q6: forecasting revenue change — highly selective scan + scalar agg.
	q6Sel := 0.02
	q6 := out(&plan.AggNode{
		Child: &plan.SeqScanNode{
			Table: "lineitem",
			Filter: plan.And{
				L: plan.Cmp{Op: plan.LT, L: plan.Col(6), R: plan.IntConst(tpchDays / 6)},
				R: plan.And{
					L: plan.Cmp{Op: plan.LT, L: plan.Col(5), R: plan.FloatConst(0.03)},
					R: plan.Cmp{Op: plan.LT, L: plan.Col(3), R: plan.FloatConst(24)},
				},
			},
			Rows: est(lrows*q6Sel, 1),
		},
		GroupBy: nil,
		Aggs: []plan.AggSpec{{Fn: plan.Sum, Arg: plan.Arith{Op: plan.Mul,
			L: plan.Col(4), R: plan.Col(5)}}},
		Rows: est(1, 1),
	}, 1)

	// Q12: shipping modes — orders ⋈ lineitem, agg by priority.
	q12Join := &plan.HashJoinNode{
		Left: &plan.SeqScanNode{Table: "orders", Rows: est(orows, orows)},
		Right: &plan.SeqScanNode{Table: "lineitem",
			Filter: plan.Cmp{Op: plan.EQ, L: plan.Col(7), R: plan.IntConst(1)},
			Rows:   est(lrows/3, orows)},
		LeftKeys: []int{0}, RightKeys: []int{0},
		Rows: est(lrows/3, orows),
	}
	q12 := out(&plan.AggNode{
		Child:   q12Join,
		GroupBy: []int{4}, // o_orderpriority
		Aggs:    []plan.AggSpec{{Fn: plan.Count, Arg: plan.Col(0)}},
		Rows:    est(5, 5),
	}, 5)

	// Q14: promotion effect — part ⋈ lineitem with a date filter.
	q14Join := &plan.HashJoinNode{
		Left: &plan.SeqScanNode{Table: "part", Rows: est(prows, prows)},
		Right: &plan.SeqScanNode{Table: "lineitem",
			Filter: plan.And{
				L: plan.Cmp{Op: plan.GE, L: plan.Col(6), R: plan.IntConst(tpchDays / 2)},
				R: plan.Cmp{Op: plan.LT, L: plan.Col(6), R: plan.IntConst(tpchDays/2 + tpchDays/24)},
			},
			Rows: est(lrows/24, prows)},
		LeftKeys: []int{0}, RightKeys: []int{1},
		Rows: est(lrows/24, prows),
	}
	q14 := out(&plan.AggNode{
		Child:   q14Join,
		GroupBy: []int{1}, // p_type
		Aggs: []plan.AggSpec{{Fn: plan.Sum, Arg: plan.Arith{Op: plan.Mul,
			L: plan.Col(8), R: plan.Arith{Op: plan.Sub, L: plan.FloatConst(1), R: plan.Col(9)}}}},
		Rows: est(150, 150),
	}, 150)

	// Q18: large-volume customers — lineitem agg, filter (HAVING), join
	// orders, top-k.
	avgPerOrder := lrows / orows * 25
	q18Agg := &plan.AggNode{
		Child:   &plan.SeqScanNode{Table: "lineitem", Rows: est(lrows, orows)},
		GroupBy: []int{0},
		Aggs:    []plan.AggSpec{{Fn: plan.Sum, Arg: plan.Col(3)}},
		Rows:    est(orows, orows),
	}
	q18Having := &plan.FilterNode{
		Child: q18Agg,
		Pred:  plan.Cmp{Op: plan.GT, L: plan.Col(1), R: plan.FloatConst(avgPerOrder * 2)},
		Rows:  est(orows/20, orows/20),
	}
	q18Join := &plan.HashJoinNode{
		Left:     q18Having,
		Right:    &plan.SeqScanNode{Table: "orders", Rows: est(orows, orows)},
		LeftKeys: []int{0}, RightKeys: []int{0},
		Rows: est(orows/20, orows/20),
	}
	q18 := out(&plan.SortNode{
		Child: q18Join,
		Keys:  []plan.SortKey{{Col: 1, Desc: true}},
		Limit: 100,
		Rows:  est(100, 100),
	}, 100)

	// Q19: discounted revenue — part ⋈ lineitem with compound predicates.
	q19Join := &plan.HashJoinNode{
		Left: &plan.SeqScanNode{Table: "part",
			Filter: plan.Cmp{Op: plan.LT, L: plan.Col(3), R: plan.IntConst(5)},
			Rows:   est(prows/5, prows/5)},
		Right: &plan.SeqScanNode{Table: "lineitem",
			Filter: plan.Cmp{Op: plan.LT, L: plan.Col(3), R: plan.FloatConst(20)},
			Rows:   est(lrows*0.4, prows/5)},
		LeftKeys: []int{0}, RightKeys: []int{1},
		Rows: est(lrows*0.4/5, prows/5),
	}
	q19 := out(&plan.AggNode{
		Child:   q19Join,
		GroupBy: nil,
		Aggs: []plan.AggSpec{{Fn: plan.Sum, Arg: plan.Arith{Op: plan.Mul,
			L: plan.Col(8), R: plan.Arith{Op: plan.Sub, L: plan.FloatConst(1), R: plan.Col(9)}}}},
		Rows: est(1, 1),
	}, 1)

	return []runner.QueryTemplate{
		{Name: "Q1", Plan: q1},
		{Name: "Q3", Plan: q3},
		{Name: "Q5", Plan: q5},
		{Name: "Q6", Plan: q6},
		{Name: "Q12", Plan: q12},
		{Name: "Q14", Plan: q14},
		{Name: "Q18", Plan: q18},
		{Name: "Q19", Plan: q19},
	}
}
