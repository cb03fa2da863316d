package sql

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mb2/internal/catalog"
	"mb2/internal/exec"
	"mb2/internal/ou"
	"mb2/internal/plan"
	"mb2/internal/storage"
)

// render prints a plan as one term: a scan with its pushed filter in
// brackets and its projected columns in braces, a join with its build and
// probe keys, and every node above with what it computes over.
func render(n plan.Node) string {
	switch v := n.(type) {
	case *plan.SeqScanNode:
		return "SeqScan(" + v.Table + ")" + bracketed(v.Filter) + braced(v.Project)
	case *plan.IdxScanNode:
		return fmt.Sprintf("IdxScan(%s=%v)", v.Index, v.Eq) + bracketed(v.Filter) + braced(v.Project)
	case *plan.HashJoinNode:
		return fmt.Sprintf("HashJoin%v=%v(%s, %s)", v.LeftKeys, v.RightKeys, render(v.Left), render(v.Right))
	case *plan.FilterNode:
		return "Filter" + bracketed(v.Pred) + "(" + render(v.Child) + ")"
	case *plan.ProjectNode:
		return fmt.Sprintf("Project%v(%s)", v.Exprs, render(v.Child))
	case *plan.AggNode:
		return fmt.Sprintf("Agg%v(%s)", v.GroupBy, render(v.Child))
	case *plan.SortNode:
		return fmt.Sprintf("Sort%v(%s)", v.Keys, render(v.Child))
	}
	return n.Name() + "(" + render(n.Children()[0]) + ")"
}

func bracketed(e plan.Expr) string {
	if e == nil {
		return ""
	}
	return "[" + e.String() + "]"
}

func braced(cols []int) string {
	if cols == nil {
		return ""
	}
	return "{" + strings.Trim(fmt.Sprint(cols), "[]") + "}"
}

// ruleCase is one statement planned on the template fixture and the exact
// tree both rules leave.
type ruleCase struct {
	indexed     bool
	query, want string
}

func checkRuleCases(t *testing.T, cases []ruleCase) {
	t.Helper()
	pls := map[bool]*Planner{false: NewPlanner(templateCtx(t, false).DB), true: NewPlanner(templateCtx(t, true).DB)}
	for _, c := range cases {
		st, err := Parse(c.query)
		if err != nil {
			t.Fatalf("%s: %v", c.query, err)
		}
		p, err := pls[c.indexed].Plan(st)
		if err != nil {
			t.Fatalf("%s: %v", c.query, err)
		}
		if got := render(p); got != c.want {
			t.Errorf("indexed=%v %s\n got %s\nwant %s", c.indexed, c.query, got, c.want)
		}
	}
}

// TestPushPredicatesRule pins where each WHERE conjunct lands: a conjunct
// over one table's columns in that table's scan — on either side of the
// join, and as an index scan when it is an equality on an indexed column —
// an AND that spans tables split into its operands, a conjunct with no
// column in the FROM table's scan, and only what spans tables (an OR across
// them, a comparison of two tables' columns) in the Filter above the join.
// A single-table WHERE lands whole in its scan, as it always did.
func TestPushPredicatesRule(t *testing.T) {
	checkRuleCases(t, []ruleCase{
		{false, "SELECT products.id, categories.label FROM categories JOIN products ON categories.cat_id = products.category WHERE products.price < 30",
			"Output(Project[col2 col1](HashJoin[0]=[1](SeqScan(categories), SeqScan(products)[(col2 < 30)]{0 1})))"},
		{false, "SELECT products.id FROM products JOIN categories ON products.category = categories.cat_id WHERE categories.label = 103 AND products.price > 10 AND products.id < categories.label - 100",
			"Output(Project[col0](Filter[(col0 < (col3 - 100))](HashJoin[1]=[0](SeqScan(products)[(col2 > 10)]{0 1}, SeqScan(categories)[(col1 = 103)]))))"},
		{false, "SELECT products.id FROM products JOIN categories ON products.category = categories.cat_id WHERE (products.price < 30 AND categories.label > 101) AND 1 = 1 AND products.id > 2",
			"Output(Project[col0](HashJoin[1]=[0](SeqScan(products)[(((col2 < 30) AND (1 = 1)) AND (col0 > 2))]{0 1}, SeqScan(categories)[(col1 > 101)]{0})))"},
		{false, "SELECT count(*) FROM products JOIN categories ON products.category = categories.cat_id WHERE products.price < 5 OR categories.label = 101",
			"Output(Agg[](Filter[((col1 < 5) OR (col3 = 101))](HashJoin[0]=[0](SeqScan(products){1 2}, SeqScan(categories)))))"},
		{true, "SELECT products.id, categories.label FROM categories JOIN products ON categories.cat_id = products.category WHERE products.category = 3",
			"Output(Project[col2 col1](HashJoin[0]=[1](SeqScan(categories), IdxScan(products_cat=[3]){0 1})))"},
		{true, "SELECT products.name, categories.label FROM products JOIN categories ON products.category = categories.cat_id WHERE products.id = 12 AND categories.label <> 101",
			"Output(Project[col1 col3](HashJoin[0]=[0](IdxScan(products_pk=[12]){1 3}, SeqScan(categories)[(col1 != 101)])))"},
		{false, "SELECT id, price FROM products WHERE category = 3 AND price > 50",
			"Output(SeqScan(products)[((col1 = 3) AND (col2 > 50))]{0 2})"},
	})
}

// TestPruneColumnsRule pins which columns each scan under a join keeps: the
// join keys, the select list, GROUP BY and aggregate arguments, ORDER BY and
// residual conjuncts, and not the columns only a pushed conjunct reads —
// and the key, group, sort and expression indices remapped onto the kept
// columns. SELECT * keeps every column.
func TestPruneColumnsRule(t *testing.T) {
	checkRuleCases(t, []ruleCase{
		{false, "SELECT count(*) FROM products JOIN categories ON products.category = categories.cat_id",
			"Output(Agg[](HashJoin[0]=[0](SeqScan(products){1}, SeqScan(categories){0})))"},
		{false, "SELECT categories.label, count(*) FROM products JOIN categories ON products.category = categories.cat_id GROUP BY categories.label",
			"Output(Agg[2](HashJoin[0]=[0](SeqScan(products){1}, SeqScan(categories))))"},
		{false, "SELECT products.id FROM products JOIN categories ON products.category = categories.cat_id ORDER BY categories.label DESC",
			"Output(Project[col0](Sort[{3 true}](HashJoin[1]=[0](SeqScan(products){0 1}, SeqScan(categories)))))"},
		{false, "SELECT sum(products.price) FROM products JOIN categories ON products.category = categories.cat_id WHERE products.name = 'widget'",
			"Output(Agg[](HashJoin[0]=[0](SeqScan(products)[(col3 = widget)]{1 2}, SeqScan(categories){0})))"},
		{false, "SELECT * FROM categories JOIN products ON categories.cat_id = products.category",
			"Output(HashJoin[0]=[1](SeqScan(categories), SeqScan(products)))"},
	})
}

// rowStrings renders result rows as a sorted multiset.
func rowStrings(rows []storage.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

// joined calls f with every products row p and categories row c of the
// oracle's nested loop that meet on p.category = c.cat_id.
func joined(p, c []storage.Tuple, f func(p, c storage.Tuple)) {
	for _, pr := range p {
		for _, cr := range c {
			if pr[1].I == cr[0].I {
				f(pr, cr)
			}
		}
	}
}

func ints(vs ...int64) storage.Tuple {
	t := make(storage.Tuple, len(vs))
	for i, v := range vs {
		t[i] = storage.NewInt(v)
	}
	return t
}

// joinCases are join statements over the template fixture, each with a
// brute-force oracle: the rows it must return, from the SELECT * rows of
// products (id, category, price, name) and categories (cat_id, label).
var joinCases = []struct {
	query  string
	oracle func(p, c []storage.Tuple) []storage.Tuple
}{
	{"SELECT products.id, categories.label FROM categories JOIN products ON categories.cat_id = products.category WHERE products.price < 30",
		func(p, c []storage.Tuple) (out []storage.Tuple) {
			joined(p, c, func(p, c storage.Tuple) {
				if p[2].Float() < 30 {
					out = append(out, ints(p[0].I, c[1].I))
				}
			})
			return out
		}},
	// an equality the probe side's index serves
	{"SELECT products.id, categories.label FROM categories JOIN products ON categories.cat_id = products.category WHERE products.category = 3",
		func(p, c []storage.Tuple) (out []storage.Tuple) {
			joined(p, c, func(p, c storage.Tuple) {
				if p[1].I == 3 {
					out = append(out, ints(p[0].I, c[1].I))
				}
			})
			return out
		}},
	// an equality the build side's index serves
	{"SELECT products.name, categories.label FROM products JOIN categories ON products.category = categories.cat_id WHERE products.id = 12",
		func(p, c []storage.Tuple) (out []storage.Tuple) {
			joined(p, c, func(p, c storage.Tuple) {
				if p[0].I == 12 {
					out = append(out, storage.Tuple{p[3], c[1]})
				}
			})
			return out
		}},
	{"SELECT products.id FROM products JOIN categories ON products.category = categories.cat_id WHERE categories.label = 103 AND products.price > 10 AND products.id < categories.label - 80",
		func(p, c []storage.Tuple) (out []storage.Tuple) {
			joined(p, c, func(p, c storage.Tuple) {
				if c[1].I == 103 && p[2].Float() > 10 && p[0].I < c[1].I-80 {
					out = append(out, ints(p[0].I))
				}
			})
			return out
		}},
	{"SELECT count(*) FROM products JOIN categories ON products.category = categories.cat_id WHERE products.price < 5 OR categories.label = 101",
		func(p, c []storage.Tuple) []storage.Tuple {
			n := int64(0)
			joined(p, c, func(p, c storage.Tuple) {
				if p[2].Float() < 5 || c[1].I == 101 {
					n++
				}
			})
			return []storage.Tuple{ints(n)}
		}},
	{"SELECT categories.label, count(*), sum(products.price) FROM products JOIN categories ON products.category = categories.cat_id GROUP BY categories.label",
		func(p, c []storage.Tuple) (out []storage.Tuple) {
			count, sum := map[int64]int64{}, map[int64]float64{}
			joined(p, c, func(p, c storage.Tuple) {
				count[c[1].I]++
				sum[c[1].I] += p[2].Float()
			})
			for label, n := range count {
				out = append(out, storage.Tuple{storage.NewInt(label), storage.NewInt(n), storage.NewFloat(sum[label])})
			}
			return out
		}},
	{"SELECT products.id, categories.label FROM products JOIN categories ON products.category = categories.cat_id WHERE products.price >= 20 ORDER BY categories.label DESC, products.id LIMIT 5",
		func(p, c []storage.Tuple) (out []storage.Tuple) {
			joined(p, c, func(p, c storage.Tuple) {
				if p[2].Float() >= 20 {
					out = append(out, ints(p[0].I, c[1].I))
				}
			})
			sort.Slice(out, func(i, j int) bool {
				if out[i][1].I != out[j][1].I {
					return out[i][1].I > out[j][1].I
				}
				return out[i][0].I < out[j][0].I
			})
			return out[:5]
		}},
	{"SELECT products.id * 2, categories.label + 1 FROM categories JOIN products ON categories.cat_id = products.category WHERE products.id < categories.label - 90 OR categories.cat_id = 4",
		func(p, c []storage.Tuple) (out []storage.Tuple) {
			joined(p, c, func(p, c storage.Tuple) {
				if p[0].I < c[1].I-90 || c[0].I == 4 {
					out = append(out, ints(p[0].I*2, c[1].I+1))
				}
			})
			return out
		}},
	{"SELECT * FROM categories JOIN products ON categories.cat_id = products.category WHERE products.name = 'widget'",
		func(p, c []storage.Tuple) (out []storage.Tuple) {
			joined(p, c, func(p, c storage.Tuple) {
				if p[3].S == "widget" {
					out = append(out, append(append(storage.Tuple{}, c...), p...))
				}
			})
			return out
		}},
	{"SELECT count(*) FROM products JOIN categories ON products.category = categories.cat_id",
		func(p, c []storage.Tuple) []storage.Tuple {
			n := int64(0)
			joined(p, c, func(storage.Tuple, storage.Tuple) { n++ })
			return []storage.Tuple{ints(n)}
		}},
}

// execConfigs are the execution configurations of the benchmark's
// olap_scan cycle: the three modes unpartitioned, and compiled over four
// partitions at DOP 2.
var execConfigs = []struct {
	mode  catalog.ExecutionMode
	parts int
}{{catalog.Interpret, 1}, {catalog.Compile, 1}, {catalog.Vectorize, 1}, {catalog.Compile, 4}}

func configCtx(t *testing.T, mode catalog.ExecutionMode, parts int, indexed bool) *exec.Ctx {
	t.Helper()
	knobs := catalog.DefaultKnobs()
	knobs.PartitionCount, knobs.ScanDOP = parts, 2
	ctx := fixtureCtx(t, knobs, indexed)
	ctx.Mode, ctx.DOP = mode, 2
	return ctx
}

// TestJoinRulesMatchOracle: every join statement returns the multiset a
// nested loop over the tables' SELECT * rows computes, under every mode,
// partitioned and not, with and without indexes — the pushed filters, the
// index scans they pick and the pruned scans change the plan, never the
// answer.
func TestJoinRulesMatchOracle(t *testing.T) {
	for _, cfg := range execConfigs {
		for _, indexed := range []bool{false, true} {
			ctx := configCtx(t, cfg.mode, cfg.parts, indexed)
			p := mustRun(t, ctx, "SELECT * FROM products").Rows
			c := mustRun(t, ctx, "SELECT * FROM categories").Rows
			for _, jc := range joinCases {
				got := rowStrings(mustRun(t, ctx, jc.query).Rows)
				want := rowStrings(jc.oracle(p, c))
				if len(want) == 0 {
					t.Fatalf("%s: the oracle returns no row", jc.query)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("mode %v, %d partitions, indexed=%v: %s\n got %v\nwant %v",
						cfg.mode, cfg.parts, indexed, jc.query, got, want)
				}
			}
		}
	}
}

// TestJoinStatisticsResolveThroughOwnTable: a join's estimates read every
// statistic from the column's own table, under its index in that table.
// The first three statements indexed past the FROM table's tuple and
// panicked the planner; the fourth holds a residual over both tables.
func TestJoinStatisticsResolveThroughOwnTable(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		ctx := templateCtx(t, indexed)
		for _, c := range []struct {
			query string
			want  []storage.Tuple
		}{
			{"SELECT categories.label, count(*) FROM products JOIN categories ON products.category = categories.cat_id GROUP BY categories.label",
				[]storage.Tuple{ints(100, 4), ints(101, 4), ints(102, 4), ints(103, 4), ints(104, 4)}},
			{"SELECT products.id, categories.label FROM categories JOIN products ON categories.cat_id = products.category WHERE products.category = 3",
				[]storage.Tuple{ints(3, 103), ints(13, 103), ints(23, 103), ints(33, 103)}},
			{"SELECT products.id FROM products JOIN categories ON products.category = categories.cat_id WHERE categories.label = 103",
				[]storage.Tuple{ints(3), ints(13), ints(23), ints(33)}},
			{"SELECT count(*) FROM products JOIN categories ON products.category = categories.cat_id WHERE categories.label = products.id + 100",
				[]storage.Tuple{ints(5)}},
		} {
			if got, want := rowStrings(mustRun(t, ctx, c.query).Rows), rowStrings(c.want); !reflect.DeepEqual(got, want) {
				t.Errorf("indexed=%v %s: got %v, want %v", indexed, c.query, got, want)
			}
		}
	}
}

// TestJoinProbeSeesFilteredInput is the count behind olap_scan's join:
// with fact.val < 3000 pushed into the probe scan, the probe record's
// tuple count is the 3 000 rows that pass plus their 3 000 matches, not
// the 30 000 rows of the table plus the matches, on every configuration;
// and the join's estimate follows the filtered input.
func TestJoinProbeSeesFilteredInput(t *testing.T) {
	const factRows, dimRows = 30000, 3000
	const query = "SELECT fact.id, dim.attr FROM dim JOIN fact ON dim.id = fact.dim_id WHERE fact.val < 3000"
	fact := make([]storage.Tuple, factRows)
	for i := range fact {
		id := int64(i)
		fact[i] = ints(id, id%100, id%dimRows, id*7919%factRows)
	}
	dim := make([]storage.Tuple, dimRows)
	for i := range dim {
		dim[i] = ints(int64(i), int64(i)%97)
	}
	for _, cfg := range execConfigs {
		knobs := catalog.DefaultKnobs()
		knobs.PartitionCount, knobs.ScanDOP = cfg.parts, 2
		ctx := knobCtx(t, knobs)
		ctx.Mode, ctx.DOP = cfg.mode, 2
		mustRun(t, ctx, "CREATE TABLE fact (id INT, grp INT, dim_id INT, val INT)")
		mustRun(t, ctx, "CREATE TABLE dim (id INT, attr INT)")
		if err := ctx.DB.BulkLoad("fact", fact); err != nil {
			t.Fatal(err)
		}
		if err := ctx.DB.BulkLoad("dim", dim); err != nil {
			t.Fatal(err)
		}
		ctx.Tracker.Collector().Drain()
		if n := len(mustRun(t, ctx, query).Rows); n != 3000 {
			t.Fatalf("mode %v, %d partitions: %d rows, want 3000", cfg.mode, cfg.parts, n)
		}
		probes := 0
		for _, r := range ctx.Tracker.Collector().Drain() {
			if r.Kind != ou.HashJoinProbe && r.Kind != ou.VecProbe {
				continue
			}
			probes++
			if r.Features[0] != 6000 {
				t.Errorf("mode %v, %d partitions: probe tuple count %v, want 3000 probed + 3000 matched", cfg.mode, cfg.parts, r.Features[0])
			}
		}
		if probes != 1 {
			t.Errorf("mode %v, %d partitions: %d probe records, want 1", cfg.mode, cfg.parts, probes)
		}

		// The range keeps a third of fact. The equality keeps one of its
		// 30 000 distinct values, so the join expects 2 rows, where the
		// unfiltered table made it expect 3 000.
		for _, c := range []struct {
			query         string
			probe, joined float64
		}{{query, factRows / 3, dimRows}, {"SELECT fact.id, dim.attr FROM dim JOIN fact ON dim.id = fact.dim_id WHERE fact.val = 5", 1, 2}} {
			st, err := Parse(c.query)
			if err != nil {
				t.Fatal(err)
			}
			p, err := NewPlanner(ctx.DB).Plan(st)
			if err != nil {
				t.Fatal(err)
			}
			join := p.(*plan.OutputNode).Child.(*plan.ProjectNode).Child.(*plan.HashJoinNode)
			if probe := join.Right.Est().Rows; probe != c.probe || join.Rows.Rows != c.joined {
				t.Errorf("%s: probe estimate %v, join estimate %v, want %v and %v", c.query, probe, join.Rows.Rows, c.probe, c.joined)
			}
		}
	}
}
