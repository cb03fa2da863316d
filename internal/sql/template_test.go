package sql

import (
	"reflect"
	"strings"
	"testing"

	"mb2/internal/catalog"
	"mb2/internal/exec"
	"mb2/internal/plan"
)

// templateCtx is the schema the template tests and FuzzTemplate plan on:
// products (id INT, category INT, price FLOAT, name VARCHAR) and categories
// (cat_id INT, label INT), optionally indexed so both access paths and the
// INT and FLOAT key coercions are reached.
func templateCtx(t testing.TB, indexed bool) *exec.Ctx {
	t.Helper()
	return fixtureCtx(t, catalog.DefaultKnobs(), indexed)
}

// fixtureCtx builds templateCtx's schema on an engine opened with knobs.
func fixtureCtx(t testing.TB, knobs catalog.Knobs, indexed bool) *exec.Ctx {
	t.Helper()
	ctx := knobCtx(t, knobs)
	run := func(q string) {
		t.Helper()
		ctx.Begin()
		if _, err := Run(ctx, q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if err := ctx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	run("CREATE TABLE products (id INT, category INT, price FLOAT, name VARCHAR(20))")
	run("CREATE TABLE categories (cat_id INT, label INT)")
	for i := 0; i < 40; i += 2 {
		run("INSERT INTO products VALUES (" + itoa(i) + ", " + itoa(i%10) + ", " + itoa(i*2) + ".5, 'widget'), (" +
			itoa(i+1) + ", " + itoa((i+1)%10) + ", " + itoa(i*2+2) + ", 'gadget')")
	}
	run("INSERT INTO categories VALUES (0, 100), (1, 101), (2, 102), (3, 103), (4, 104)")
	if indexed {
		run("CREATE UNIQUE INDEX products_pk ON products (id)")
		run("CREATE INDEX products_cat ON products (category)")
		run("CREATE INDEX products_price ON products (price)")
	}
	return ctx
}

// templatePairs are texts with one template key each: the first is planned
// into a Template, the second is what Bind must reproduce. Together they
// cover every plannable statement of sql_test.go, the statement shapes of
// the benchmark's workloads and of the server's load generator, and the
// coercion, sign and residual-filter cases.
var templatePairs = [][2]string{
	// sql_test.go
	{"SELECT * FROM products", "SELECT * FROM products"},
	{"SELECT id, price FROM products WHERE category = 3 AND price > 50", "SELECT id, price FROM products WHERE category = 7 AND price > 11"},
	{"SELECT id FROM products WHERE name = 'widget'", "SELECT id FROM products WHERE name = 'gadget'"},
	{"SELECT category, count(*), avg(price) FROM products GROUP BY category", "select category, COUNT(*), avg(price) from products group by category"},
	{"SELECT sum(price), min(price), max(price) FROM products", "SELECT sum(price), min(price), max(price) FROM products"},
	{"SELECT id, price FROM products ORDER BY price DESC LIMIT 3", "SELECT id, price FROM products ORDER BY price DESC LIMIT 3"},
	{"SELECT id * 2 + 1 FROM products WHERE id < 3", "SELECT id * 5 + 9 FROM products WHERE id < 30"},
	{"SELECT count(*) FROM products JOIN categories ON products.category = categories.cat_id", "SELECT count(*) FROM products JOIN categories ON products.category = categories.cat_id"},
	{"UPDATE products SET price = price + 1000 WHERE category = 0", "UPDATE products SET price = price + 3 WHERE category = 4"},
	{"DELETE FROM products WHERE price > 1000", "DELETE FROM products WHERE price > 2"},
	{"SELECT * FROM products WHERE id = 42", "SELECT * FROM products WHERE id = 7"},
	{"SELECT id FROM products WHERE category = 3 AND price > 100", "SELECT id FROM products WHERE category = 4 AND price > 10"},
	{"UPDATE products SET price = 0", "UPDATE products SET price = 9"},
	{"SELECT category, count(*) FROM products WHERE price > 10 GROUP BY category", "SELECT category, count(*) FROM products WHERE price > 60 GROUP BY category"},
	{"SELECT category, count(*) FROM products GROUP BY category ORDER BY category LIMIT 5", "SELECT category, count(*) FROM products GROUP BY category ORDER BY category LIMIT 5"},
	{"SELECT category, count(*) FROM products WHERE price < 100 GROUP BY category", "SELECT category, count(*) FROM products WHERE price < 20 GROUP BY category"},
	{"SELECT id, price FROM products WHERE category = 3", "SELECT id, price FROM products WHERE category = 9"},
	// oltp_point, mixed_rw
	{"SELECT id, price FROM products WHERE id = 17", "SELECT id, price FROM products WHERE id = 33"},
	{"UPDATE products SET category = 5 WHERE id = 17", "UPDATE products SET category = 8 WHERE id = 2"},
	{"INSERT INTO categories VALUES (7, 107)", "INSERT INTO categories VALUES (8, 108)"},
	{"DELETE FROM products WHERE id = 12", "DELETE FROM products WHERE id = 13"},
	{"SELECT id, price FROM products WHERE category = 2", "SELECT id, price FROM products WHERE category = 6"},
	// olap_scan
	{"SELECT id, price FROM products WHERE price < 40", "SELECT id, price FROM products WHERE price < 12"},
	{"SELECT category, sum(price), count(id) FROM products GROUP BY category", "SELECT category, sum(price), count(id) FROM products GROUP BY category"},
	{"SELECT products.id, categories.label FROM categories JOIN products ON categories.cat_id = products.category WHERE products.price < 30",
		"SELECT products.id, categories.label FROM categories JOIN products ON categories.cat_id = products.category WHERE products.price < 55"},
	{"SELECT id, price FROM products WHERE category < 4 ORDER BY price DESC LIMIT 10", "SELECT id, price FROM products WHERE category < 2 ORDER BY price DESC LIMIT 10"},
	// server load generator
	{"SELECT category, sum(price) FROM products WHERE id < 30 AND category = 3 GROUP BY category", "SELECT category, sum(price) FROM products WHERE id < 9 AND category = 1 GROUP BY category"},
	{"SELECT count(id) FROM products WHERE id >= 3 AND id < 30", "SELECT count(id) FROM products WHERE id >= 10 AND id < 12"},
	{"INSERT INTO products VALUES (100, 1, 100.5, 'x')", "INSERT INTO products VALUES (101, 2, 7.25, 'yy')"},
	// int and float literals against INT and FLOAT columns, in filters,
	// index keys and inserted cells
	{"SELECT * FROM products WHERE price = 5", "SELECT * FROM products WHERE price = 8"},
	{"SELECT * FROM products WHERE price = 4.5", "SELECT * FROM products WHERE price = 8.5"},
	{"SELECT * FROM products WHERE id = 5.0", "SELECT * FROM products WHERE id = 6.5"},
	{"INSERT INTO products VALUES (100, 1, 100, 'x')", "INSERT INTO products VALUES (101, 2, 7, 'y')"},
	// signs: folded into a literal, or an operator
	{"SELECT * FROM products WHERE id = -5", "SELECT * FROM products WHERE id = -7"},
	{"SELECT sum(price) FROM products WHERE price >= -1.5", "SELECT sum(price) FROM products WHERE price >= -0.0"},
	{"SELECT id - -3, id - 3 FROM products WHERE 5 = id", "SELECT id - -4, id - 1 FROM products WHERE 6 = id"},
	{"INSERT INTO categories VALUES (-1, -2), (3, -4)", "INSERT INTO categories VALUES (-9, -8), (7, -6)"},
	// a literal used by the index key and by the residual filter
	{"SELECT * FROM products WHERE category = 3 AND name = 'widget' AND price > 2", "SELECT * FROM products WHERE category = 1 AND name = 'gadget' AND price > 40"},
	{"UPDATE products SET name = 'a', price = price * 1.1 WHERE id = 3 AND category = 3", "UPDATE products SET name = 'b', price = price * 2.5 WHERE id = 4 AND category = 4"},
	// joins: a conjunct pushed into each side, one pushed into an index
	// scan, a residual over both tables, GROUP BY and ORDER BY on the
	// joined table
	{"SELECT products.id, categories.label FROM products JOIN categories ON products.category = categories.cat_id WHERE products.price > 12 AND categories.label < 104",
		"SELECT products.id, categories.label FROM products JOIN categories ON products.category = categories.cat_id WHERE products.price > 30 AND categories.label < 102"},
	{"SELECT products.id, categories.label FROM categories JOIN products ON categories.cat_id = products.category WHERE products.category = 3",
		"SELECT products.id, categories.label FROM categories JOIN products ON categories.cat_id = products.category WHERE products.category = 1"},
	{"SELECT count(*) FROM products JOIN categories ON products.category = categories.cat_id WHERE categories.label = products.id + 100",
		"SELECT count(*) FROM products JOIN categories ON products.category = categories.cat_id WHERE categories.label = products.id + 98"},
	{"SELECT categories.label, count(*) FROM products JOIN categories ON products.category = categories.cat_id WHERE products.id < 30 GROUP BY categories.label ORDER BY categories.label",
		"SELECT categories.label, count(*) FROM products JOIN categories ON products.category = categories.cat_id WHERE products.id < 12 GROUP BY categories.label ORDER BY categories.label"},
	// multi-row INSERT
	{"INSERT INTO categories VALUES (10, 110), (11, 111), (12, 112)", "INSERT INTO categories VALUES (20, 1), (21, 2), (22, 3)"},
	// aggregates and projections over literals, OR, a constant aggregate argument
	{"SELECT sum(price * 2), count(*) FROM products WHERE id < 5 OR id > 30", "SELECT sum(price * 3), count(*) FROM products WHERE id < 1 OR id > 9"},
	{"SELECT id, 5, 'k' FROM products ORDER BY id LIMIT 2", "SELECT id, 6, 'j' FROM products ORDER BY id LIMIT 2"},
	{"SELECT count(1) FROM products;", "SELECT count(2) FROM products;"},
}

// planBoth plans a text twice: through PlanTemplate with the literal count
// Normalize reports, and through plain Plan.
func planBoth(t *testing.T, pl *Planner, text string) (*Template, plan.Node, []Literal, string) {
	t.Helper()
	key, lits, ok := Normalize(text, nil, nil)
	if !ok {
		t.Fatalf("%s: no template key", text)
	}
	st, err := Parse(text)
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	tmpl, err := pl.PlanTemplate(st, len(lits))
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	fresh, err := pl.Plan(st)
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	return tmpl, fresh, lits, string(key)
}

// TestBindEqualsFreshPlan is the soundness test of the plan cache: a tree
// planned from one text and bound to the literals of another text with the
// same key must be, field for field, the tree a fresh Parse and Plan of
// that other text gives at the same engine state, and must return the same
// rows. It fails the day the planner starts reading a literal's value
// (say, a histogram selectivity) without that value being in the key.
func TestBindEqualsFreshPlan(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		ctx := templateCtx(t, indexed)
		pl := NewPlanner(ctx.DB)
		for _, pair := range templatePairs {
			tmpl, fresh1, lits1, key1 := planBoth(t, pl, pair[0])
			_, fresh2, lits2, key2 := planBoth(t, pl, pair[1])
			if key1 != key2 {
				t.Fatalf("keys differ:\n %q -> %q\n %q -> %q", pair[0], key1, pair[1], key2)
			}
			if !tmpl.Bindable() {
				t.Fatalf("indexed=%v %q: not bindable", indexed, pair[0])
			}
			if !reflect.DeepEqual(tmpl.Root(), fresh1) {
				t.Errorf("indexed=%v %q: recording sites changed the plan", indexed, pair[0])
			}
			bound := tmpl.Bind(lits2)
			if !reflect.DeepEqual(bound, fresh2) {
				t.Errorf("indexed=%v: %q bound to %q differs from a fresh plan:\n bound %s\n fresh %s",
					indexed, pair[0], pair[1], describe(bound), describe(fresh2))
			}
			if !reflect.DeepEqual(tmpl.Bind(lits1), fresh1) {
				t.Errorf("indexed=%v %q: bound to its own literals differs from a fresh plan", indexed, pair[0])
			}
			if !reflect.DeepEqual(tmpl.Root(), fresh1) {
				t.Errorf("indexed=%v %q: Bind wrote to the template", indexed, pair[0])
			}
			if _, ok := fresh2.(*plan.OutputNode); ok {
				got, err := exec.Execute(ctx, bound)
				if err != nil {
					t.Fatal(err)
				}
				want, err := exec.Execute(ctx, fresh2)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Rows, want.Rows) {
					t.Errorf("indexed=%v %q: bound plan returned %d rows, fresh plan %d", indexed, pair[1], len(got.Rows), len(want.Rows))
				}
			}
		}
	}
}

// describe prints a plan with its expressions, for a failing comparison.
func describe(n plan.Node) string {
	var sb strings.Builder
	plan.Walk(n, func(n plan.Node) {
		sb.WriteString(n.Name())
		switch v := n.(type) {
		case *plan.SeqScanNode:
			if v.Filter != nil {
				sb.WriteString("[" + v.Filter.String() + "]")
			}
		case *plan.IdxScanNode:
			for _, k := range v.Eq {
				sb.WriteString("[" + k.Kind.String() + " " + k.String() + "]")
			}
			if v.Filter != nil {
				sb.WriteString("[" + v.Filter.String() + "]")
			}
		}
		sb.WriteString(" ")
	})
	return sb.String()
}

// TestTemplateKeySeparatesWhatShapesThePlan: whatever the planner reads to
// shape a tree is in the key. An integer and a float in the same position
// never share a key, nor do two LIMIT counts; a literal the planner drops
// or reads structurally makes the template unbindable instead.
func TestTemplateKeySeparatesWhatShapesThePlan(t *testing.T) {
	key := func(text string) string {
		t.Helper()
		k, _, ok := Normalize(text, nil, nil)
		if !ok {
			t.Fatalf("%s: no template key", text)
		}
		return string(k)
	}
	if got, want := key("SELECT id,Price FROM products WHERE id=-5 AND name<>'it''s' LIMIT 7;"),
		"select id , price from products where id = - ?i and name <> ?s ?s limit 7 ;"; got != want {
		t.Fatalf("key = %q, want %q", got, want)
	}
	for _, p := range [][2]string{
		{"SELECT * FROM products WHERE price = 5", "SELECT * FROM products WHERE price = 5.0"},
		{"SELECT * FROM products WHERE id = 5", "SELECT * FROM products WHERE id = '5'"},
		{"SELECT * FROM products WHERE id = 5", "SELECT * FROM products WHERE id = -5"},
		{"SELECT * FROM products LIMIT 5", "SELECT * FROM products LIMIT 7"},
		{"SELECT * FROM products ORDER BY id LIMIT 5", "SELECT * FROM products ORDER BY id LIMIT 7"},
	} {
		if key(p[0]) == key(p[1]) {
			t.Errorf("%q and %q share the key %q", p[0], p[1], key(p[0]))
		}
	}

	ctx := templateCtx(t, true)
	pl := NewPlanner(ctx.DB)
	for _, n := range []int{5, 7} {
		tmpl, _, _, _ := planBoth(t, pl, "SELECT * FROM products LIMIT "+itoa(n))
		b, err := exec.Execute(ctx, tmpl.Root())
		if err != nil {
			t.Fatal(err)
		}
		if len(b.Rows) != n {
			t.Errorf("LIMIT %d returned %d rows", n, len(b.Rows))
		}
	}
	for _, text := range []string{
		"SELECT * FROM products WHERE id = 5 AND id = 6", // the index key keeps one of the two
		"SELECT * FROM products LIMIT -5",                // a signed count is not the LIMIT n the key keeps
		"SELECT 5, count(*) FROM products",               // a constant beside an aggregate is dropped
	} {
		if tmpl, _, _, _ := planBoth(t, pl, text); tmpl.Bindable() {
			t.Errorf("%q: bindable, but one of its literals is in no value slot", text)
		}
	}
}

// TestNormalizeRefuses: texts without a usable key.
func TestNormalizeRefuses(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("INSERT INTO categories VALUES (0, 0)")
	for i := 1; 2*i < MaxTemplateLiterals+2; i++ {
		sb.WriteString(", (1, 1)")
	}
	key, lits, ok := Normalize(sb.String(), nil, nil)
	if ok || len(lits) != MaxTemplateLiterals {
		t.Fatalf("%d literals: ok=%v with %d collected, want refusal at %d", MaxTemplateLiterals+2, ok, len(lits), MaxTemplateLiterals)
	}
	if len(key) > 8*MaxTemplateLiterals {
		t.Fatalf("refused key is %d bytes", len(key))
	}
	for _, text := range []string{"SELECT 'oops", "SELECT @x", "SELECT 1.2.3 FROM t", "SELECT 99999999999999999999 FROM t"} {
		if _, _, ok := Normalize(text, nil, nil); ok {
			t.Errorf("%q: got a key", text)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		key, lits, _ = Normalize("UPDATE acct SET bal = 123456 WHERE id = 4242 AND name = 'x'", key[:0], lits[:0])
	})
	if allocs != 0 {
		t.Errorf("Normalize into warm scratch allocates %v times per call", allocs)
	}
}
