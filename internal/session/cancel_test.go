package session

import (
	"errors"
	"sync"
	"testing"
)

// TestKillMidQueryObservesNothing is the observation-plumbing regression:
// a kill landing mid-plan — at an operator boundary (the plan's second poll)
// or inside the scan the group-by consumes as it streams (its last poll, a
// scan chunk) — must abort the statement with ErrKilled and leave the
// observation buffer holding only whole completed queries: the killed query
// contributes nothing, and what was buffered before the kill drains exactly
// once.
func TestKillMidQueryObservesNothing(t *testing.T) {
	const query = "SELECT grp, count(grp) FROM t GROUP BY grp"
	_, reg := testDB(t, 200)

	// How often a completed run of the query polls the interrupt hook.
	probe, err := reg.Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	orig := probe.ExecCtx().Interrupt
	lastPoll := 0
	probe.ExecCtx().Interrupt = func() error { lastPoll++; return orig() }
	if _, _, err := probe.ExecSQL(query); err != nil {
		t.Fatal(err)
	}
	probe.Close()
	if lastPoll < 3 {
		t.Fatalf("the query polled the interrupt hook %d times; want both entries and a scan chunk", lastPoll)
	}

	for _, killAt := range []int{2, lastPoll} {
		s, err := reg.Open(Options{})
		if err != nil {
			t.Fatal(err)
		}

		// Two completed queries buffer normally first.
		for i := 0; i < 2; i++ {
			if _, _, err := s.ExecSQL(query); err != nil {
				t.Fatal(err)
			}
		}

		// Deterministic mid-query kill: wrap the session's interrupt hook so
		// the process-list kill is issued at the chosen poll, before the
		// query can finish.
		orig := s.ExecCtx().Interrupt
		polls := 0
		s.ExecCtx().Interrupt = func() error {
			polls++
			if polls == killAt {
				reg.Kill(s.ID, nil)
			}
			return orig()
		}
		_, _, err = s.ExecSQL(query)
		if !errors.Is(err, ErrKilled) {
			t.Fatalf("kill at poll %d returned %v, want ErrKilled", killAt, err)
		}
		if polls != killAt {
			t.Fatalf("interrupt polled %d times; the kill at poll %d did not stop the plan there", polls, killAt)
		}

		// Exactly-once: the two completed queries drain once, the killed one
		// never appears, and a second drain is empty.
		obs := s.stats.Drain()
		total := 0.0
		for _, c := range obs.Counts {
			total += c
		}
		if total != 2 {
			t.Fatalf("drained %v observations, want exactly the 2 completed queries (counts %v)", total, obs.Counts)
		}
		if again := s.stats.Drain(); len(again.Counts) != 0 {
			t.Fatalf("second drain not empty: %v", again.Counts)
		}

		// The killed session is inert but its bookkeeping is consistent.
		info := s.Info()
		if info.Queries != 2 || info.Failed != 1 {
			t.Fatalf("info after kill: %+v, want 2 completed / 1 failed", info)
		}
		s.Close()
	}
}

// TestKillRollsBackAutoCommitDML: a kill landing inside an auto-commit
// DML statement must abort the implicit transaction, leaving neither a
// dangling txn on the session nor a partial observation.
func TestKillRollsBackAutoCommitDML(t *testing.T) {
	db, reg := testDB(t, 50)
	s, err := reg.Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	before := db.RowCount("t")
	orig := s.ExecCtx().Interrupt
	s.ExecCtx().Interrupt = func() error {
		reg.Kill(s.ID, nil)
		return orig()
	}
	_, _, err = s.ExecSQL("INSERT INTO t VALUES (9999, 0, 1.5)")
	if !errors.Is(err, ErrKilled) {
		t.Fatalf("killed insert returned %v, want ErrKilled", err)
	}
	if s.ExecCtx().Txn != nil {
		t.Fatal("killed auto-commit DML left a transaction open")
	}
	if got := db.RowCount("t"); got != before {
		t.Fatalf("killed insert changed row count %v -> %v", before, got)
	}
	if obs := s.stats.Drain(); len(obs.Counts) != 0 {
		t.Fatalf("killed DML leaked observations: %v", obs.Counts)
	}
}

// TestKillCausePropagates: the cause passed to the process-list kill
// surfaces from the interrupted execution, wrapped in ErrKilled.
func TestKillCausePropagates(t *testing.T) {
	_, reg := testDB(t, 50)
	s, err := reg.Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	cause := errors.New("operator requested")
	reg.Kill(s.ID, cause)
	_, _, err = s.ExecSQL("SELECT * FROM t WHERE k = 1")
	if !errors.Is(err, ErrKilled) {
		t.Fatalf("got %v, want ErrKilled", err)
	}

	s2, err := reg.Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	orig := s2.ExecCtx().Interrupt
	s2.ExecCtx().Interrupt = func() error {
		s2.Kill(cause)
		return orig()
	}
	_, _, err = s2.ExecSQL("SELECT grp, count(grp) FROM t GROUP BY grp")
	if !errors.Is(err, ErrKilled) || !errors.Is(err, cause) {
		t.Fatalf("mid-query error %v must wrap both ErrKilled and the cause", err)
	}
}

// TestConcurrentExecRejected pins the one-statement-at-a-time contract.
func TestConcurrentExecRejected(t *testing.T) {
	_, reg := testDB(t, 50)
	s, err := reg.Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	release := make(chan struct{})
	entered := make(chan struct{})
	orig := s.ExecCtx().Interrupt
	once := sync.Once{}
	s.ExecCtx().Interrupt = func() error {
		once.Do(func() {
			close(entered)
			<-release
		})
		return orig()
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := s.ExecSQL("SELECT * FROM t WHERE k = 1")
		done <- err
	}()
	<-entered
	if _, _, err := s.ExecSQL("SELECT * FROM t WHERE k = 2"); !errors.Is(err, ErrBusy) {
		t.Fatalf("overlapping exec got %v, want ErrBusy", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("first statement failed: %v", err)
	}
}
