package session

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mb2/internal/catalog"
	"mb2/internal/exec"
	"mb2/internal/plan"
	"mb2/internal/sql"
)

func open(t *testing.T, reg *Registry) *Session {
	t.Helper()
	s, err := reg.Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func mustExec(t *testing.T, s *Session, q string) *exec.Batch {
	t.Helper()
	b, _, err := s.ExecSQL(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return b
}

// TestAdHocStatementsObserveOneTemplate: N executions carrying N distinct
// literals are one template to everything downstream — one Stats entry
// with count N, one parse, one cached plan — where the statement text used
// to make N of each.
func TestAdHocStatementsObserveOneTemplate(t *testing.T) {
	_, reg := testDB(t, 100)
	s := open(t, reg)
	const n = 40
	for i := 0; i < n; i++ {
		if b := mustExec(t, s, fmt.Sprintf("SELECT * FROM t WHERE k = %d", i)); len(b.Rows) != 1 || b.Rows[0][0].I != int64(i) {
			t.Fatalf("k = %d returned %v", i, b.Rows)
		}
	}
	obs := s.stats.Drain()
	const key = "select * from t where k = ?i"
	if len(obs.Counts) != 1 || obs.Counts[key] != n {
		t.Fatalf("observed %v, want one template %q with count %d", obs.Counts, key, n)
	}
	if obs.Reps[key] == nil || obs.Iso[key].ElapsedUS <= 0 {
		t.Fatalf("template %q has no representative plan or no elapsed time", key)
	}
	if st := s.PlanCache(); st.Entries != 1 || st.Misses != 1 || st.Hits != n-1 || st.Evictions != 0 {
		t.Fatalf("plan cache %+v, want 1 entry, 1 miss, %d hits", st, n-1)
	}
}

// TestCachedStatementsMatchFreshOnes runs one statement sequence against two
// identical databases: on the first through a single session, so all but
// the first statement of a template execute a cached, bound plan; on the
// second each statement gets a new session, so each is parsed and planned
// afresh. Every result and the final table contents must agree.
func TestCachedStatementsMatchFreshOnes(t *testing.T) {
	_, cachedReg := testDB(t, 60)
	_, freshReg := testDB(t, 60)
	cached := open(t, cachedReg)
	var script []string
	for i := 0; i < 12; i++ {
		script = append(script,
			fmt.Sprintf("SELECT k, v FROM t WHERE k = %d", i*5),
			fmt.Sprintf("UPDATE t SET v = v * %d.5, grp = %d WHERE k = %d", i, i%3, i*2),
			fmt.Sprintf("INSERT INTO t VALUES (%d, %d, %d), (%d, %d, -%d.25)", 100+2*i, i, i, 101+2*i, i, i),
			fmt.Sprintf("SELECT grp, sum(v), count(*) FROM t WHERE k < %d AND grp = %d GROUP BY grp", 40+i, i%7),
			fmt.Sprintf("DELETE FROM t WHERE k = %d", 59-i),
			fmt.Sprintf("SELECT k FROM t WHERE grp = %d AND v > -%d ORDER BY k LIMIT %d", i%7, i, 1+i%2),
			fmt.Sprintf("SELECT k + %d, 'tag' FROM t WHERE k >= %d AND k < %d", i, i, i+3),
		)
		if i == 5 {
			script = append(script, "CREATE UNIQUE INDEX t_k ON t (k)", "CREATE INDEX t_grp ON t (grp)")
		}
	}
	script = append(script, "SELECT * FROM t")
	for _, q := range script {
		fresh := open(t, freshReg)
		got, want := mustExec(t, cached, q), mustExec(t, fresh, q)
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Fatalf("%s:\n cached %v\n fresh  %v", q, got.Rows, want.Rows)
		}
		fresh.Close() // releases want

	}
	if st := cached.PlanCache(); st.Entries != 9 || st.Hits < 70 {
		t.Fatalf("plan cache %+v: the script has 9 templates (LIMIT 1 and LIMIT 2 are two) and should mostly hit", st)
	}
}

// planned is the scan under a cached SELECT's output.
func planned(e *entry) plan.Node { return e.tmpl.Root().(*plan.OutputNode).Child }

// TestAdHocReplansOnConfigVersion: an index publish or a knob change
// between two executions of a template replans it, through the one entry
// ad-hoc and prepared statements share.
func TestAdHocReplansOnConfigVersion(t *testing.T) {
	db, reg := testDB(t, 100)
	s := open(t, reg)
	p, err := s.Prepare("point", "SELECT * FROM t WHERE k = 42")
	if err != nil {
		t.Fatal(err)
	}
	const key = "select * from t where k = ?i"
	rep := func() plan.Node {
		t.Helper()
		return s.stats.Drain().Reps[key].(*plan.OutputNode).Child
	}
	mustExec(t, s, "SELECT * FROM t WHERE k = 1")
	mustExec(t, s, "SELECT * FROM t WHERE k = 2")
	if _, ok := rep().(*plan.SeqScanNode); !ok || p.e.replans != 0 {
		t.Fatalf("before the index: replans = %d", p.e.replans)
	}

	mustExec(t, s, "CREATE INDEX t_k ON t (k)")
	if b := mustExec(t, s, "SELECT * FROM t WHERE k = 3"); len(b.Rows) != 1 || b.Rows[0][0].I != 3 {
		t.Fatalf("after the index: %v", b.Rows)
	}
	scan, ok := rep().(*plan.IdxScanNode)
	if !ok || scan.Eq[0].I != 3 {
		t.Fatalf("after the index the template still runs %T", scan)
	}
	if _, ok := planned(p.e).(*plan.IdxScanNode); !ok || p.e.replans != 1 {
		t.Fatalf("replans = %d, the entry holds %T", p.e.replans, planned(p.e))
	}

	k := db.Knobs()
	k.ExecutionMode = catalog.Compile
	db.SetKnobs(k)
	if b, _, err := s.ExecPrepared("point"); err != nil || len(b.Rows) != 1 || b.Rows[0][0].I != 42 {
		t.Fatalf("after the knob change: %v, %v", b, err)
	}
	mustExec(t, s, "SELECT * FROM t WHERE k = 4")
	if p.e.replans != 2 {
		t.Fatalf("replans = %d after a knob change, want 2 (one per ConfigVersion, not per execution)", p.e.replans)
	}
}

// TestUnbindableTemplateServesOnlyItsOwnLiterals: with an index on k, the
// planner keeps one of two equalities on k as the key and drops the other,
// so the tree cannot be bound to other literals; each text must then behave
// as if planned alone.
func TestUnbindableTemplateServesOnlyItsOwnLiterals(t *testing.T) {
	_, reg := testDB(t, 50)
	s := open(t, reg)
	mustExec(t, s, "CREATE INDEX t_k ON t (k)")
	for _, k := range []int{6, 9, 6, 11} {
		q := fmt.Sprintf("SELECT k FROM t WHERE k = 5 AND k = %d", k)
		want, err := sql.Run(s.ExecCtx(), q)
		if err != nil {
			t.Fatal(err)
		}
		if got := mustExec(t, s, q); !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Fatalf("%s: %v, want %v", q, got.Rows, want.Rows)
		}
	}
	for _, n := range []int{2, 5, 2} {
		if b := mustExec(t, s, fmt.Sprintf("SELECT k FROM t LIMIT %d", n)); len(b.Rows) != n {
			t.Fatalf("LIMIT %d returned %d rows", n, len(b.Rows))
		}
	}
}

// TestPlanCacheBounds hits each bound of the statement cache.
func TestPlanCacheBounds(t *testing.T) {
	db, reg := testDB(t, 20)
	s := open(t, reg)

	// More templates than MaxTemplates: the least recently used go, counted.
	const extra = 10
	for n := 1; n <= MaxTemplates+extra; n++ {
		mustExec(t, s, fmt.Sprintf("SELECT k FROM t LIMIT %d", n))
	}
	if st := s.PlanCache(); st.Entries != MaxTemplates || st.Evictions != extra {
		t.Fatalf("plan cache %+v, want %d entries and %d evictions", st, MaxTemplates, extra)
	}
	before := s.PlanCache()
	mustExec(t, s, fmt.Sprintf("SELECT k FROM t LIMIT %d", MaxTemplates+extra)) // most recent: still cached
	mustExec(t, s, "SELECT k FROM t LIMIT 1")                                   // oldest: evicted, planned again
	if st := s.PlanCache(); st.Hits != before.Hits+1 || st.Misses != before.Misses+1 || st.Evictions != extra+1 {
		t.Fatalf("plan cache %+v after re-running the newest and the oldest template (before: %+v)", st, before)
	}

	// More prepared statements than MaxPrepared: a typed error, charged to
	// the process list's failed column; replacing a name is always allowed.
	for i := 0; i < MaxPrepared; i++ {
		if _, err := s.Prepare(fmt.Sprintf("p%d", i), "SELECT k FROM t WHERE k = 1"); err != nil {
			t.Fatal(err)
		}
	}
	failed := s.Info().Failed
	if _, err := s.Prepare("one-too-many", "SELECT k FROM t WHERE k = 1"); !errors.Is(err, ErrTooManyPrepared) {
		t.Fatalf("prepare %d got %v, want ErrTooManyPrepared", MaxPrepared+1, err)
	}
	if got := s.Info().Failed; got != failed+1 {
		t.Fatalf("Failed = %d after the refused Prepare, want %d", got, failed+1)
	}
	if _, err := s.Prepare("p0", "SELECT k FROM t WHERE k = 2"); err != nil {
		t.Fatalf("replacing a prepared statement at the bound: %v", err)
	}

	// More literals than sql.MaxTemplateLiterals: the statement runs, but
	// neither its text nor a key of that size is kept anywhere.
	var sb strings.Builder
	sb.WriteString("INSERT INTO t VALUES (1000, 0, 0.5)")
	for i := 1; i < 10_000; i++ {
		fmt.Fprintf(&sb, ", (%d, %d, %d.5)", 1000+i, i%7, i)
	}
	entries, rows := s.PlanCache().Entries, db.RowCount("t")
	s.stats.Drain()
	mustExec(t, s, sb.String())
	if got := db.RowCount("t"); got != rows+10_000 {
		t.Fatalf("bulk INSERT left %v rows, want %v", got, rows+10_000)
	}
	if got := s.PlanCache().Entries; got != entries {
		t.Fatalf("bulk INSERT was cached: %d entries, had %d", got, entries)
	}
	for name := range s.stats.Drain().Counts {
		if len(name) > 16*sql.MaxTemplateLiterals {
			t.Fatalf("bulk INSERT observed under a %d-byte name", len(name))
		}
	}
}

// TestCachedStatementAllocations puts a ceiling on what a cached ad-hoc
// statement allocates: its execution (8 allocations for the prepared point
// select) plus a bind that copies the nodes on the way to a literal and
// nothing else. Parsed and planned per statement, the same select and
// update took 79 and 90 allocations.
func TestCachedStatementAllocations(t *testing.T) {
	_, reg := testDB(t, 200)
	s := open(t, reg)
	mustExec(t, s, "CREATE UNIQUE INDEX t_k ON t (k)")
	const runs = 100
	for _, c := range []struct {
		name    string
		text    func(i int) string
		ceiling float64
	}{
		{"point select", func(i int) string { return fmt.Sprintf("SELECT k, v FROM t WHERE k = %d", i) }, 12},
		{"point update", func(i int) string { return fmt.Sprintf("UPDATE t SET grp = %d WHERE k = %d", i%5, i) }, 24},
	} {
		texts := make([]string, runs+2) // AllocsPerRun warms up with one extra call
		for i := range texts {
			texts[i] = c.text(i)
		}
		i := 0
		allocs := testing.AllocsPerRun(runs, func() {
			if _, _, err := s.ExecSQL(texts[i]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if allocs > c.ceiling {
			t.Errorf("%s: %v allocations per cached execution, ceiling %v", c.name, allocs, c.ceiling)
		}
	}
}

// TestRepresentativesSurviveInPlaceBind: a template's Bind rewrites one tree
// in place, statement after statement, while the observation buffer keeps
// representatives a drain hands to another goroutine. One session runs
// point SELECTs and UPDATEs on distinct keys, every one a bound execution
// after the first of its template, while a drainer fingerprints each
// representative it receives and checks it against a fresh plan of the one
// text it can have come from (the key names the text). Under -race a
// representative that is the live bound tree is a data race; without it,
// the final re-check catches the tree having moved on since its drain.
func TestRepresentativesSurviveInPlaceBind(t *testing.T) {
	const statements = 10_000
	db, reg := testDB(t, 100)
	s := open(t, reg)
	mustExec(t, s, "CREATE UNIQUE INDEX t_k ON t (k)")
	text := func(update bool, k int64) string {
		if update {
			return fmt.Sprintf("UPDATE t SET v = %d.5 WHERE k = %d", 3*k, k)
		}
		return fmt.Sprintf("SELECT k, v FROM t WHERE k = %d", k)
	}
	fresh := func(q string) plan.Node {
		st, err := sql.Parse(q)
		if err != nil {
			t.Error(err)
			return nil
		}
		n, err := sql.NewPlanner(db).Plan(st)
		if err != nil {
			t.Error(err)
		}
		return n
	}
	type kept struct {
		rep  plan.Node
		text string
	}
	var reps []kept
	check := func(obs Observation) {
		for _, rep := range obs.Reps {
			_ = plan.Fingerprint(rep)
			var idx *plan.IdxScanNode
			plan.Walk(rep, func(n plan.Node) {
				if v, ok := n.(*plan.IdxScanNode); ok {
					idx = v
				}
			})
			if idx == nil || len(idx.Eq) != 1 {
				t.Errorf("representative %#x is not a point plan", plan.Fingerprint(rep))
				continue
			}
			_, update := rep.(*plan.UpdateNode)
			q := text(update, idx.Eq[0].I)
			if !reflect.DeepEqual(rep, fresh(q)) {
				t.Errorf("representative drained for %q differs from a fresh plan of it", q)
			}
			reps = append(reps, kept{rep, q})
		}
	}

	done := make(chan struct{})
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for {
			select {
			case <-done:
				check(reg.DrainObservations())
				return
			default:
				check(reg.DrainObservations())
			}
		}
	}()
	for i := int64(0); i < statements; i++ {
		if _, _, err := s.ExecSQL(text(i%2 == 1, i)); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	<-drained
	t.Logf("%d representatives drained over %d statements", len(reps), statements)
	if len(reps) <= 2 {
		t.Fatalf("%d representatives drained over %d statements: no bound execution was observed", len(reps), statements)
	}
	for _, r := range reps {
		if !reflect.DeepEqual(r.rep, fresh(r.text)) {
			t.Fatalf("representative of %q changed after its drain", r.text)
		}
	}
}
