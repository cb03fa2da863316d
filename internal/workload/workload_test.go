package workload

import (
	"math/rand"
	"testing"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/exec"
	"mb2/internal/hw"
	"mb2/internal/metrics"
	"mb2/internal/plan"
)

func loadBench(t *testing.T, b Benchmark, scale float64) *engine.DB {
	t.Helper()
	db := engine.Open(catalog.DefaultKnobs())
	if err := b.Load(db, scale, 1); err != nil {
		t.Fatalf("%s load: %v", b.Name(), err)
	}
	return db
}

func execCtx(db *engine.DB) *exec.Ctx {
	return &exec.Ctx{
		DB:      db,
		Tracker: metrics.NewTracker(nil, hw.NewThread(hw.DefaultCPU())),
		Mode:    catalog.Interpret, Contenders: 1,
	}
}

func TestTPCHLoadScales(t *testing.T) {
	db := loadBench(t, TPCH{}, 0.02)
	if got := db.RowCount("lineitem"); got != 1200 {
		t.Fatalf("lineitem rows = %v, want 1200", got)
	}
	if got := db.RowCount("region"); got != 5 {
		t.Fatalf("region rows = %v", got)
	}
	// Scale ratio holds.
	db10 := loadBench(t, TPCH{}, 0.04)
	if db10.RowCount("lineitem") != 2*db.RowCount("lineitem") {
		t.Fatal("scale factor not linear")
	}
}

func TestTPCHTemplatesExecute(t *testing.T) {
	bench := TPCH{}
	db := loadBench(t, bench, 0.02)
	ctx := execCtx(db)
	for _, q := range bench.Templates(db, 1) {
		b, err := exec.Execute(ctx, q.Plan)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if len(b.Rows) == 0 {
			t.Errorf("%s returned no rows", q.Name)
		}
	}
}

func TestTPCHEstimatesRoughlyMatchActuals(t *testing.T) {
	bench := TPCH{}
	db := loadBench(t, bench, 0.05)
	ctx := execCtx(db)
	for _, q := range bench.Templates(db, 1) {
		out, ok := q.Plan.(*plan.OutputNode)
		if !ok {
			t.Fatalf("%s: top node is not Output", q.Name)
		}
		b, err := exec.Execute(ctx, q.Plan)
		if err != nil {
			t.Fatal(err)
		}
		got := float64(len(b.Rows))
		est := out.Est().Rows
		if est > 20*got+20 || got > 20*est+20 {
			t.Errorf("%s: estimate %v vs actual %v off by >20x", q.Name, est, got)
		}
	}
}

func runProcedures(t *testing.T, db *engine.DB, procs []Procedure, iters int) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < iters; i++ {
		for _, p := range procs {
			ctx := execCtx(db)
			ctx.Begin()
			ok := true
			for _, pl := range p.Make(db, rng) {
				if _, err := exec.Execute(ctx, pl); err != nil {
					// Write conflicts are legal under MVCC; abort and move on.
					ok = false
					break
				}
			}
			if ok {
				if err := ctx.Commit(); err != nil {
					t.Fatalf("%s commit: %v", p.Name, err)
				}
			} else {
				if err := ctx.Abort(); err != nil {
					t.Fatalf("%s abort: %v", p.Name, err)
				}
			}
		}
	}
}

func TestTPCCProceduresRun(t *testing.T) {
	b := TPCC{CustomersPerDistrict: 60}
	db := loadBench(t, b, 1)
	if got := db.RowCount("customer"); got != 600 {
		t.Fatalf("customers = %v", got)
	}
	if db.Index("customer_pk") == nil {
		t.Fatal("primary indexes missing")
	}
	procs := b.Procedures()
	if len(procs) != 5 {
		t.Fatalf("TPC-C must have 5 transactions, got %d", len(procs))
	}
	before := db.RowCount("orders")
	runProcedures(t, db, procs, 3)
	if db.RowCount("orders") <= before {
		t.Fatal("NewOrder did not insert orders")
	}
}

func TestTPCCSecondaryIndexSwitchesPlan(t *testing.T) {
	b := TPCC{CustomersPerDistrict: 60}
	db := loadBench(t, b, 1)
	if _, ok := b.customerByLastPlan(db, 0, 0, 1).(*plan.SeqScanNode); !ok {
		t.Fatal("without the index the lookup must be a seq scan")
	}
	if _, _, err := db.CreateIndex(nil, hw.DefaultCPU(), CustomerSecondaryIndex,
		"customer", CustomerSecondaryKeyCols(), false, 2); err != nil {
		t.Fatal(err)
	}
	idxPlan, ok := b.customerByLastPlan(db, 0, 0, 1).(*plan.IdxScanNode)
	if !ok {
		t.Fatal("with the index the lookup must use it")
	}
	// And it must actually execute faster than the scan.
	ctx := execCtx(db)
	beforeIdx := ctx.Thread().Counters()
	bi, err := exec.Execute(ctx, idxPlan)
	if err != nil {
		t.Fatal(err)
	}
	idxCost := ctx.Thread().Since(beforeIdx).ElapsedUS

	if err := db.DropIndex(CustomerSecondaryIndex); err != nil {
		t.Fatal(err)
	}
	scanPlan := b.customerByLastPlan(db, 0, 0, 1)
	beforeScan := ctx.Thread().Counters()
	bs, err := exec.Execute(ctx, scanPlan)
	if err != nil {
		t.Fatal(err)
	}
	scanCost := ctx.Thread().Since(beforeScan).ElapsedUS
	if len(bi.Rows) != len(bs.Rows) {
		t.Fatalf("plans disagree: %d vs %d rows", len(bi.Rows), len(bs.Rows))
	}
	if idxCost >= scanCost {
		t.Fatalf("index lookup (%v) must beat seq scan (%v)", idxCost, scanCost)
	}
}

func TestTATPProceduresRun(t *testing.T) {
	b := TATP{}
	db := loadBench(t, b, 0.05)
	if db.RowCount("subscriber") != 500 {
		t.Fatalf("subscribers = %v", db.RowCount("subscriber"))
	}
	procs := b.Procedures()
	if len(procs) != 7 {
		t.Fatalf("TATP must have 7 transactions, got %d", len(procs))
	}
	runProcedures(t, db, procs, 3)
}

func TestSmallBankProceduresRun(t *testing.T) {
	b := SmallBank{}
	db := loadBench(t, b, 0.05)
	if db.RowCount("accounts") != 500 {
		t.Fatalf("accounts = %v", db.RowCount("accounts"))
	}
	procs := b.Procedures()
	if len(procs) != 5 {
		t.Fatalf("SmallBank must have 5 transactions, got %d", len(procs))
	}
	runProcedures(t, db, procs, 3)
}

func TestOLTPTemplatesExecute(t *testing.T) {
	for _, b := range []Benchmark{TPCC{CustomersPerDistrict: 60}, TATP{}, SmallBank{}} {
		scale := 1.0
		if b.Name() != "tpcc" {
			scale = 0.05
		}
		db := loadBench(t, b, scale)
		templates := b.Templates(db, 1)
		if len(templates) == 0 {
			t.Fatalf("%s has no templates", b.Name())
		}
		ctx := execCtx(db)
		for _, q := range templates {
			if _, err := exec.Execute(ctx, q.Plan); err != nil {
				t.Errorf("%s/%s: %v", b.Name(), q.Name, err)
			}
		}
	}
}

// TestStreamsMatchTheirOracle applies each serial stream to a fresh
// database: every predicted RowID must be the one the engine allocates, the
// committed state must be the oracle's fold, and the stream must exercise
// inserts, updates, deletes and deliberate aborts, inserts among them.
func TestStreamsMatchTheirOracle(t *testing.T) {
	for _, s := range []Stream{SmallBank{}.Stream(1, 300), TATP{}.Stream(1, 300)} {
		t.Run(s.Name, func(t *testing.T) {
			db, tables, err := s.Schema.Open(catalog.DefaultKnobs(), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			commits := uint64(0)
			kinds := map[int]bool{}
			abortedKinds := map[int]bool{}
			for i, ct := range s.Txns {
				if err := Apply(db, tables, ct); err != nil {
					t.Fatalf("txn %d: %v", i, err)
				}
				for _, e := range ct.effects {
					kinds[e.kind] = true
					if ct.Abort {
						abortedKinds[e.kind] = true
					}
				}
				if !ct.Abort {
					commits++
				}
			}
			got := CaptureState(tables, db.Txns.LastCommitTS())
			if err := got.Diff(s.ModelAfter(commits)); err != nil {
				t.Fatal(err)
			}
			if err := db.CheckIndexes(); err != nil {
				t.Fatal(err)
			}
			if len(kinds) != 3 || len(abortedKinds) == 0 {
				t.Fatalf("effect kinds %v, aborted %v: want insert, update and delete, and aborts", kinds, abortedKinds)
			}
			if s.Name == "smallbank" && !abortedKinds[effInsert] {
				t.Fatal("no aborted account opening: its consumed RowIDs go unchecked")
			}
		})
	}
}
