package session

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/hw"
	"mb2/internal/plan"
	"mb2/internal/storage"
)

// testDB loads a small two-column table through the session layer itself.
func testDB(t *testing.T, rows int) (*engine.DB, *Registry) {
	t.Helper()
	db := engine.Open(catalog.DefaultKnobs())
	reg := NewRegistry(db, 0)
	s, err := reg.Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustExec := func(q string) {
		t.Helper()
		if _, _, err := s.ExecSQL(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	mustExec("CREATE TABLE t (k INT, grp INT, v FLOAT)")
	for i := 0; i < rows; i += 2 {
		mustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d, %d.5), (%d, %d, %d.5)",
			i, i%7, i, i+1, (i+1)%7, i+1))
	}
	return db, reg
}

func TestSessionExecSQLAndObservation(t *testing.T) {
	_, reg := testDB(t, 100)
	s, err := reg.Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	b, _, err := s.ExecSQL("SELECT * FROM t WHERE k = 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Rows) != 1 {
		t.Fatalf("point lookup returned %d rows, want 1", len(b.Rows))
	}
	b, _, err = s.ExecSQL("SELECT grp, count(grp) FROM t GROUP BY grp")
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Rows) != 7 {
		t.Fatalf("group-by returned %d rows, want 7", len(b.Rows))
	}

	obs := s.stats.Drain()
	if len(obs.Counts) != 2 {
		t.Fatalf("observed %d templates, want 2: %v", len(obs.Counts), obs.Counts)
	}
	for name, c := range obs.Counts {
		if c != 1 {
			t.Errorf("template %q observed %v times, want 1", name, c)
		}
		if obs.Reps[name] == nil {
			t.Errorf("template %q has no representative plan", name)
		}
		if obs.Iso[name].ElapsedUS <= 0 {
			t.Errorf("template %q observed no elapsed time", name)
		}
	}
	if again := s.stats.Drain(); len(again.Counts) != 0 {
		t.Fatalf("second drain not empty: %v", again.Counts)
	}

	// Through the process list: Load holds one entry per session in
	// ascending session ID, each the sum of the isolated metrics that
	// session's statements returned (zero for one that ran nothing), and a
	// second drain finds nothing left.
	_, reg2 := testDB(t, 100)
	idle, err := reg2.Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	busy, err := reg2.Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	var want hw.Metrics
	for _, node := range []plan.Node{
		&plan.SeqScanNode{Table: "t", Rows: plan.Estimates{Rows: 100, Distinct: 100}},
		&plan.SeqScanNode{Table: "t", Filter: plan.Cmp{Op: plan.LT, L: plan.Col(0), R: plan.IntConst(10)},
			Rows: plan.Estimates{Rows: 10, Distinct: 10}},
	} {
		_, iso, err := busy.ExecPlan("scan", plan.Fingerprint(node), node)
		if err != nil {
			t.Fatal(err)
		}
		want.Add(iso)
	}
	if want.ElapsedUS <= 0 {
		t.Fatal("the busy session's scans measured no time")
	}
	if got := reg2.DrainObservations().Load; !reflect.DeepEqual(got, []hw.Metrics{{}, want}) {
		t.Fatalf("drained load %v, want [idle: zero, busy: %v]", got, want)
	}
	if got := reg2.DrainObservations().Load; !reflect.DeepEqual(got, []hw.Metrics{{}, {}}) {
		t.Fatalf("second drain's load %v, want two zero entries", got)
	}

	// Per entry point, on a fresh session: a completed read or auto-commit
	// DML leaves one count whose Iso and Load are exactly the metrics the
	// call returned, under the tree that ran; a statement that fails to
	// execute leaves nothing.
	type run func(*Session) (template string, ran plan.Node, iso hw.Metrics, err error)
	execPlan := func(template string, node plan.Node) run {
		return func(s *Session) (string, plan.Node, hw.Metrics, error) {
			_, iso, err := s.ExecPlan(template, 0, node)
			return template, node, iso, err
		}
	}
	execSQL := func(query string) run {
		return func(s *Session) (string, plan.Node, hw.Metrics, error) {
			_, iso, err := s.ExecSQL(query)
			for key, e := range s.cache.entries {
				return key, e.tmpl.Root(), iso, err
			}
			return "", nil, iso, err
		}
	}
	execPrepared := func(query string) run {
		return func(s *Session) (string, plan.Node, hw.Metrics, error) {
			p, err := s.Prepare("p", query)
			if err != nil {
				t.Fatal(err)
			}
			_, iso, err := s.ExecPrepared("p")
			return "p", p.e.tmpl.Root(), iso, err
		}
	}
	row := []storage.Tuple{{storage.NewInt(500), storage.NewInt(3), storage.NewFloat(2.5)}}
	for _, tc := range []struct {
		name  string
		run   run
		fails bool
	}{
		{"ExecPlan/read", execPlan("scan", &plan.SeqScanNode{Table: "t", Rows: plan.Estimates{Rows: 100, Distinct: 100}}), false},
		{"ExecPlan/dml", execPlan("insert", &plan.InsertNode{Table: "t", Tuples: row}), false},
		{"ExecSQL/read", execSQL("SELECT * FROM t WHERE k = 5"), false},
		{"ExecSQL/dml", execSQL("UPDATE t SET v = 3.5 WHERE k = 7"), false},
		{"ExecPrepared/read", execPrepared("SELECT grp, count(grp) FROM t GROUP BY grp"), false},
		{"ExecPrepared/dml", execPrepared("DELETE FROM t WHERE k = 9"), false},
		{"ExecPlan/read fails", execPlan("scan", &plan.SeqScanNode{Table: "missing"}), true},
		{"ExecPlan/dml fails", execPlan("insert", &plan.InsertNode{Table: "missing", Tuples: row}), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := open(t, reg)
			template, ran, iso, err := tc.run(s)
			obs := s.stats.Drain()
			if tc.fails {
				if err == nil {
					t.Fatal("statement succeeded")
				}
				if len(obs.Counts)+len(obs.Iso)+len(obs.Reps) != 0 || obs.Load[0] != (hw.Metrics{}) {
					t.Fatalf("failed statement observed: %+v", obs)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(obs.Counts) != 1 || obs.Counts[template] != 1 {
				t.Fatalf("counts %v, want %q once", obs.Counts, template)
			}
			if obs.Iso[template] != iso || obs.Load[0] != iso || iso.ElapsedUS <= 0 {
				t.Fatalf("iso %+v and load %+v, want the returned %+v", obs.Iso[template], obs.Load[0], iso)
			}
			if obs.Reps[template] != ran {
				t.Fatalf("representative %v, want the executed tree %v", obs.Reps[template], ran)
			}
		})
	}
}

func TestSessionAutoCommitDML(t *testing.T) {
	db, reg := testDB(t, 10)
	s, err := reg.Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	before := db.RowCount("t")
	if _, _, err := s.ExecSQL("INSERT INTO t VALUES (1000, 0, 1.5)"); err != nil {
		t.Fatal(err)
	}
	if got := db.RowCount("t"); got != before+1 {
		t.Fatalf("row count %v after insert, want %v", got, before+1)
	}
	if s.ExecCtx().Txn != nil {
		t.Fatal("auto-commit left a transaction open")
	}
}

// TestPreparedPlanCacheKeyedToConfigVersion pins the plan-cache contract:
// a prepared statement's plan is reused while the engine configuration
// stands still and replanned — picking up a newly published index — the
// moment ConfigVersion moves.
func TestPreparedPlanCacheKeyedToConfigVersion(t *testing.T) {
	db, reg := testDB(t, 100)
	s, err := reg.Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	p, err := s.Prepare("point", "SELECT * FROM t WHERE k = 42")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		b, _, err := s.ExecPrepared("point")
		if err != nil {
			t.Fatal(err)
		}
		if len(b.Rows) != 1 {
			t.Fatalf("run %d: %d rows, want 1", i, len(b.Rows))
		}
	}
	if p.e.replans != 0 {
		t.Fatalf("plan replanned %d times with a stable configuration", p.e.replans)
	}
	if _, ok := planned(p.e).(*plan.SeqScanNode); !ok {
		t.Fatalf("before the index the entry holds %T", planned(p.e))
	}

	// Publishing an index advances ConfigVersion; the very next execution
	// must replan onto it.
	v := db.ConfigVersion()
	if _, _, err := s.ExecSQL("CREATE INDEX t_k ON t (k) WITH (threads = 1)"); err != nil {
		t.Fatal(err)
	}
	if db.ConfigVersion() == v {
		t.Fatal("CREATE INDEX did not advance ConfigVersion")
	}
	b, _, err := s.ExecPrepared("point")
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Rows) != 1 {
		t.Fatalf("indexed run: %d rows, want 1", len(b.Rows))
	}
	if p.e.replans != 1 {
		t.Fatalf("replans = %d after ConfigVersion move, want 1", p.e.replans)
	}
	if _, ok := planned(p.e).(*plan.IdxScanNode); !ok {
		t.Fatalf("replanned statement holds %T, want the index scan", planned(p.e))
	}

	// Stable again: no further replanning.
	if _, _, err := s.ExecPrepared("point"); err != nil {
		t.Fatal(err)
	}
	if p.e.replans != 1 {
		t.Fatalf("replans = %d with configuration stable again, want 1", p.e.replans)
	}
}

func TestPrepareRejectsDDL(t *testing.T) {
	_, reg := testDB(t, 10)
	s, err := reg.Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Prepare("ddl", "CREATE INDEX nope ON t (k)"); err == nil {
		t.Fatal("preparing DDL must fail")
	}
}

// TestFailedCountsEveryStatementThatNeverExecuted: a plan failure is
// charged to the process-list Failed counter whether the statement came as
// text, by prepared name, or under a name that was never prepared.
func TestFailedCountsEveryStatementThatNeverExecuted(t *testing.T) {
	_, reg := testDB(t, 10)
	s, err := reg.Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Prepare("p", "SELECT * FROM nope"); err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		name string
		exec func() error
	}{
		{"ExecSQL on a missing table", func() error { _, _, err := s.ExecSQL("SELECT * FROM nope"); return err }},
		{"ExecPrepared that fails to plan", func() error { _, _, err := s.ExecPrepared("p"); return err }},
		{"ExecPrepared of an unknown name", func() error { _, _, err := s.ExecPrepared("missing"); return err }},
	}
	for i, st := range steps {
		if err := st.exec(); err == nil {
			t.Fatalf("%s succeeded", st.name)
		}
		if got, want := s.Info().Failed, uint64(i+1); got != want {
			t.Fatalf("after %s: Failed = %d, want %d", st.name, got, want)
		}
	}
}

func TestRegistryAdmissionCap(t *testing.T) {
	db := engine.Open(catalog.DefaultKnobs())
	reg := NewRegistry(db, 2)
	a, err := reg.Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := reg.Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Open(Options{}); !errors.Is(err, ErrAdmission) {
		t.Fatalf("third open got %v, want ErrAdmission", err)
	}
	if _, rejected, _ := reg.Counters(); rejected != 1 {
		t.Fatalf("rejected = %d, want 1", rejected)
	}
	// Closing frees a slot.
	a.Close()
	c, err := reg.Open(Options{})
	if err != nil {
		t.Fatalf("open after close: %v", err)
	}
	c.Close()
	b.Close()
	if reg.Len() != 0 {
		t.Fatalf("%d sessions live after closes", reg.Len())
	}
}

func TestProcessListRows(t *testing.T) {
	_, reg := testDB(t, 10)
	a, _ := reg.Open(Options{})
	b, _ := reg.Open(Options{})
	defer a.Close()
	defer b.Close()

	if _, _, err := a.ExecSQL("SELECT * FROM t WHERE k = 1"); err != nil {
		t.Fatal(err)
	}
	list := reg.List()
	if len(list) != 2 {
		t.Fatalf("process list has %d rows, want 2", len(list))
	}
	if list[0].ID >= list[1].ID {
		t.Fatal("process list not in ascending ID order")
	}
	var row ProcessInfo
	for _, r := range list {
		if r.ID == a.ID {
			row = r
		}
	}
	if row.Queries != 1 || row.State != Idle {
		t.Fatalf("row for session %d: %+v", a.ID, row)
	}

	if !reg.Kill(b.ID, nil) {
		t.Fatal("kill of live session reported false")
	}
	if reg.Kill(99999, nil) {
		t.Fatal("kill of unknown ID reported true")
	}
	if b.Info().State != Killed {
		t.Fatalf("killed session in state %v", b.Info().State)
	}
	if _, _, err := b.ExecSQL("SELECT * FROM t WHERE k = 1"); !errors.Is(err, ErrKilled) {
		t.Fatalf("exec on killed session got %v, want ErrKilled", err)
	}
	// Killed sessions stay listed until closed.
	if got := len(reg.List()); got != 2 {
		t.Fatalf("process list has %d rows after kill, want 2", got)
	}
	b.Close()
	if got := len(reg.List()); got != 1 {
		t.Fatalf("process list has %d rows after close, want 1", got)
	}
}
