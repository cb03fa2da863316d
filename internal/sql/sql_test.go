package sql

import (
	"strings"
	"testing"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/exec"
	"mb2/internal/hw"
	"mb2/internal/metrics"
	"mb2/internal/modeling"
	"mb2/internal/plan"
)

func newCtx(t testing.TB) *exec.Ctx { return knobCtx(t, catalog.DefaultKnobs()) }

// knobCtx is an interpreted context over a fresh engine opened with knobs.
func knobCtx(t testing.TB, knobs catalog.Knobs) *exec.Ctx {
	t.Helper()
	db := engine.Open(knobs)
	return &exec.Ctx{
		DB:      db,
		Tracker: metrics.NewTracker(metrics.NewCollector(), hw.NewThread(hw.DefaultCPU())),
		Mode:    catalog.Interpret, Contenders: 1,
	}
}

func mustRun(t *testing.T, ctx *exec.Ctx, q string) *exec.Batch {
	t.Helper()
	b, err := Run(ctx, q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return b
}

func mustRunTxn(t *testing.T, ctx *exec.Ctx, q string) {
	t.Helper()
	ctx.Begin()
	if _, err := Run(ctx, q); err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	if err := ctx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// seededCtx builds a small products table through pure SQL.
func seededCtx(t *testing.T) *exec.Ctx {
	t.Helper()
	ctx := newCtx(t)
	mustRun(t, ctx, "CREATE TABLE products (id INT, category INT, price FLOAT, name VARCHAR(20))")
	var sb strings.Builder
	sb.WriteString("INSERT INTO products VALUES ")
	for i := 0; i < 100; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		name := "'gadget'"
		if i%2 == 0 {
			name = "'widget'"
		}
		sb.WriteString("(")
		sb.WriteString(itoa(i))
		sb.WriteString(", ")
		sb.WriteString(itoa(i % 10))
		sb.WriteString(", ")
		sb.WriteString(itoa(i * 2))
		sb.WriteString(".5, ")
		sb.WriteString(name)
		sb.WriteString(")")
	}
	mustRunTxn(t, ctx, sb.String())
	return ctx
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func TestLexer(t *testing.T) {
	toks, err := lex("SELECT * FROM t WHERE a >= 10 AND b <> 'x'")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		texts = append(texts, tk.text)
	}
	want := "select * from t where a >= 10 and b <> x "
	if got := strings.Join(texts, " "); got != want {
		t.Fatalf("tokens = %q, want %q", got, want)
	}
}

func TestLexerErrors(t *testing.T) {
	if _, err := lex("SELECT 'oops"); err == nil {
		t.Fatal("unterminated string must error")
	}
	if _, err := lex("SELECT @x"); err == nil {
		t.Fatal("bad character must error")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC * FROM t",
		"SELECT FROM t",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t GROUP x",
		"INSERT INTO t (1)",
		"CREATE TABLE t (a BLOB)",
		"SELECT * FROM t extra garbage",
		"UPDATE t SET",
		"DROP TABLE t",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("%q: expected parse error", q)
		}
	}
}

func TestCreateInsertSelectStar(t *testing.T) {
	ctx := seededCtx(t)
	b := mustRun(t, ctx, "SELECT * FROM products")
	if len(b.Rows) != 100 || len(b.Rows[0]) != 4 {
		t.Fatalf("rows=%d cols=%d", len(b.Rows), len(b.Rows[0]))
	}
}

func TestSelectWhereAndProjection(t *testing.T) {
	ctx := seededCtx(t)
	b := mustRun(t, ctx, "SELECT id, price FROM products WHERE category = 3 AND price > 50")
	if len(b.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range b.Rows {
		if r[0].I%10 != 3 {
			t.Fatalf("category filter broken: %v", r)
		}
		if r[1].F <= 50 {
			t.Fatalf("price filter broken: %v", r)
		}
		if len(r) != 2 {
			t.Fatalf("projection width %d", len(r))
		}
	}
}

func TestSelectStringPredicate(t *testing.T) {
	ctx := seededCtx(t)
	b := mustRun(t, ctx, "SELECT id FROM products WHERE name = 'widget'")
	if len(b.Rows) != 50 {
		t.Fatalf("widgets = %d, want 50", len(b.Rows))
	}
}

func TestAggregationGroupBy(t *testing.T) {
	ctx := seededCtx(t)
	b := mustRun(t, ctx, "SELECT category, count(*), avg(price) FROM products GROUP BY category")
	if len(b.Rows) != 10 {
		t.Fatalf("groups = %d", len(b.Rows))
	}
	for _, r := range b.Rows {
		if r[1].I != 10 {
			t.Fatalf("count per category = %v", r[1])
		}
	}
}

func TestScalarAggregate(t *testing.T) {
	ctx := seededCtx(t)
	b := mustRun(t, ctx, "SELECT sum(price), min(price), max(price) FROM products")
	if len(b.Rows) != 1 {
		t.Fatalf("rows = %d", len(b.Rows))
	}
	if b.Rows[0][1].F != 0.5 || b.Rows[0][2].F != 198.5 {
		t.Fatalf("min/max wrong: %v", b.Rows[0])
	}
}

func TestOrderByLimit(t *testing.T) {
	ctx := seededCtx(t)
	b := mustRun(t, ctx, "SELECT id, price FROM products ORDER BY price DESC LIMIT 3")
	if len(b.Rows) != 3 {
		t.Fatalf("rows = %d", len(b.Rows))
	}
	if b.Rows[0][0].I != 99 || b.Rows[1][0].I != 98 {
		t.Fatalf("order wrong: %v", b.Rows)
	}
}

func TestComputedProjection(t *testing.T) {
	ctx := seededCtx(t)
	b := mustRun(t, ctx, "SELECT id * 2 + 1 FROM products WHERE id < 3")
	if len(b.Rows) != 3 || b.Rows[2][0].I != 5 {
		t.Fatalf("computed projection wrong: %v", b.Rows)
	}
}

func TestJoin(t *testing.T) {
	ctx := seededCtx(t)
	mustRun(t, ctx, "CREATE TABLE categories (cat_id INT, label INT)")
	mustRunTxn(t, ctx, "INSERT INTO categories VALUES (0, 100), (1, 101), (2, 102), (3, 103), (4, 104), (5, 105), (6, 106), (7, 107), (8, 108), (9, 109)")
	b := mustRun(t, ctx, "SELECT count(*) FROM products JOIN categories ON products.category = categories.cat_id")
	if len(b.Rows) != 1 || b.Rows[0][0].I != 100 {
		t.Fatalf("join count = %v", b.Rows)
	}
}

func TestUpdateDeleteViaSQL(t *testing.T) {
	ctx := seededCtx(t)
	mustRunTxn(t, ctx, "UPDATE products SET price = price + 1000 WHERE category = 0")
	b := mustRun(t, ctx, "SELECT count(*) FROM products WHERE price > 1000")
	if b.Rows[0][0].I != 10 {
		t.Fatalf("updated rows = %v", b.Rows[0][0])
	}
	mustRunTxn(t, ctx, "DELETE FROM products WHERE price > 1000")
	b = mustRun(t, ctx, "SELECT count(*) FROM products")
	if b.Rows[0][0].I != 90 {
		t.Fatalf("remaining = %v", b.Rows[0][0])
	}
}

func TestCreateIndexAndPointPlan(t *testing.T) {
	ctx := seededCtx(t)
	mustRun(t, ctx, "CREATE UNIQUE INDEX products_pk ON products (id) WITH (threads = 2)")
	if ctx.DB.Index("products_pk") == nil {
		t.Fatal("index not created")
	}

	// The planner must route a covered equality predicate through the index.
	pl := NewPlanner(ctx.DB)
	st, err := Parse("SELECT * FROM products WHERE id = 42")
	if err != nil {
		t.Fatal(err)
	}
	p, err := pl.Plan(st)
	if err != nil {
		t.Fatal(err)
	}
	out := p.(*plan.OutputNode)
	if _, ok := out.Child.(*plan.IdxScanNode); !ok {
		t.Fatalf("expected index scan, got %T", out.Child)
	}
	b := mustRun(t, ctx, "SELECT * FROM products WHERE id = 42")
	if len(b.Rows) != 1 || b.Rows[0][0].I != 42 {
		t.Fatalf("point lookup = %v", b.Rows)
	}

	// Drop and fall back to a sequential scan.
	mustRun(t, ctx, "DROP INDEX products_pk")
	p, err = pl.Plan(st)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.(*plan.OutputNode).Child.(*plan.SeqScanNode); !ok {
		t.Fatal("expected seq scan after drop")
	}
}

func TestIndexWithResidualFilter(t *testing.T) {
	ctx := seededCtx(t)
	mustRun(t, ctx, "CREATE INDEX products_cat ON products (category)")
	b := mustRun(t, ctx, "SELECT id FROM products WHERE category = 3 AND price > 100")
	for _, r := range b.Rows {
		if r[0].I%10 != 3 {
			t.Fatalf("wrong category row: %v", r)
		}
	}
	// Residual filter must have applied (price > 100 keeps roughly half).
	if len(b.Rows) == 0 || len(b.Rows) >= 10 {
		t.Fatalf("residual filter not applied: %d rows", len(b.Rows))
	}
}

func TestDMLRequiresTxn(t *testing.T) {
	ctx := seededCtx(t)
	if _, err := Run(ctx, "UPDATE products SET price = 0"); err == nil {
		t.Fatal("DML without txn must fail")
	}
}

func TestEstimatesFlowIntoPlans(t *testing.T) {
	ctx := seededCtx(t)
	pl := NewPlanner(ctx.DB)
	st, _ := Parse("SELECT category, count(*) FROM products WHERE price > 10 GROUP BY category")
	p, err := pl.Plan(st)
	if err != nil {
		t.Fatal(err)
	}
	agg := p.(*plan.OutputNode).Child.(*plan.AggNode)
	if agg.Rows.Rows != 10 {
		t.Fatalf("group estimate = %v, want 10", agg.Rows.Rows)
	}
	scan := agg.Child.(*plan.SeqScanNode)
	if scan.Rows.Rows <= 0 || scan.Rows.Rows >= 100 {
		t.Fatalf("range selectivity estimate = %v", scan.Rows.Rows)
	}
}

func TestUnknownNamesError(t *testing.T) {
	ctx := seededCtx(t)
	for _, q := range []string{
		"SELECT * FROM ghost",
		"SELECT nope FROM products",
		"SELECT * FROM products WHERE ghost = 1",
		"SELECT id FROM products ORDER BY ghost",
	} {
		if _, err := Run(ctx, q); err == nil {
			t.Errorf("%q: expected binding error", q)
		}
	}
}

func TestSQLEmitsOURecords(t *testing.T) {
	ctx := seededCtx(t)
	ctx.Tracker.Collector().Drain()
	mustRun(t, ctx, "SELECT category, count(*) FROM products GROUP BY category ORDER BY category LIMIT 5")
	recs := ctx.Tracker.Collector().Drain()
	if len(recs) < 4 {
		t.Fatalf("expected a full OU trace, got %d records", len(recs))
	}
}

// TestSQLRunnerEquivalence demonstrates the paper's Sec 6.2 claim that
// OU-runners can be written as high-level SQL without changing the training
// data: the same logical query issued through SQL and through the plan API
// produces the same OU trace (kinds and features).
func TestSQLRunnerEquivalence(t *testing.T) {
	ctx := seededCtx(t)

	// SQL path.
	ctx.Tracker.Collector().Drain()
	mustRun(t, ctx, "SELECT category, count(*) FROM products WHERE price < 100 GROUP BY category")
	viaSQL := ctx.Tracker.Collector().Drain()

	// Plan-API path: the equivalent hand-built physical plan.
	pl := NewPlanner(ctx.DB)
	st, err := Parse("SELECT category, count(*) FROM products WHERE price < 100 GROUP BY category")
	if err != nil {
		t.Fatal(err)
	}
	p, err := pl.Plan(st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Execute(ctx, p); err != nil {
		t.Fatal(err)
	}
	viaPlan := ctx.Tracker.Collector().Drain()

	if len(viaSQL) != len(viaPlan) {
		t.Fatalf("OU trace lengths differ: %d vs %d", len(viaSQL), len(viaPlan))
	}
	for i := range viaSQL {
		if viaSQL[i].Kind != viaPlan[i].Kind {
			t.Fatalf("OU %d kind %v vs %v", i, viaSQL[i].Kind, viaPlan[i].Kind)
		}
		for j := range viaSQL[i].Features {
			if viaSQL[i].Features[j] != viaPlan[i].Features[j] {
				t.Fatalf("OU %d feature %d: %v vs %v", i, j,
					viaSQL[i].Features[j], viaPlan[i].Features[j])
			}
		}
	}
}

// TestSQLPlansPredictable closes the loop: SQL-built plans run through MB2's
// translator and carry sane estimates.
func TestSQLPlansPredictable(t *testing.T) {
	ctx := seededCtx(t)
	pl := NewPlanner(ctx.DB)
	st, err := Parse("SELECT id, price FROM products WHERE category = 3")
	if err != nil {
		t.Fatal(err)
	}
	p, err := pl.Plan(st)
	if err != nil {
		t.Fatal(err)
	}
	tr := modeling.NewTranslator(ctx.DB, catalog.Interpret)
	invs := tr.TranslatePlan(p)
	if len(invs) < 2 {
		t.Fatalf("translated OUs = %d", len(invs))
	}
	// The scan's row feature must be the table size; the filter's op count
	// must scale with it.
	if invs[0].Features[0] != 100 {
		t.Fatalf("scan rows feature = %v", invs[0].Features[0])
	}
}
