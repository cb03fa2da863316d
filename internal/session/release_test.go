package session

import (
	"fmt"
	"runtime/debug"
	"slices"
	"testing"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/exec"
	"mb2/internal/hw"
	"mb2/internal/plan"
	"mb2/internal/sql"
	"mb2/internal/storage"
)

var execModes = []catalog.ExecutionMode{catalog.Interpret, catalog.Compile, catalog.Vectorize}

// openModes opens one session per execution mode on db: a session takes
// the mode the knobs hold when it opens.
func openModes(t *testing.T, db *engine.DB, reg *Registry) []*Session {
	t.Helper()
	var ss []*Session
	for _, mode := range execModes {
		knobs := db.Knobs()
		knobs.ExecutionMode = mode
		db.SetKnobs(knobs)
		ss = append(ss, open(t, reg))
	}
	return ss
}

// cloneRows copies rows deep: what a result held when it was taken.
func cloneRows(rows []storage.Tuple) []storage.Tuple {
	out := make([]storage.Tuple, len(rows))
	for i, r := range rows {
		out[i] = r.Clone()
	}
	return out
}

func sameRows(a, b []storage.Tuple) bool {
	return slices.EqualFunc(a, b, func(x, y storage.Tuple) bool { return slices.Equal(x, y) })
}

// TestReleasedStatementsKeepWhatOutlivesThem runs 10 000 statements, each
// releasing the one before it, round robin over an interpreted, a compiled
// and a vectorized session, and checks that whatever outlives a statement
// stays intact: every result while it is valid, string literals inserted
// and updated into the table, prepared statements' literals, the plans the
// observation buffers keep, and rows taken with sql.Run on a session's
// execution context between two statements. The table ends equal to a
// reference engine that ran the same writes without sessions.
func TestReleasedStatementsKeepWhatOutlivesThem(t *testing.T) {
	const statements = 10000
	db := engine.Open(catalog.DefaultKnobs())
	reg := NewRegistry(db, 0)
	ref := exec.NewCtx(engine.Open(catalog.DefaultKnobs()), hw.DefaultCPU())
	refRun := func(q string) *exec.Batch {
		t.Helper()
		b, err := sql.Run(ref, q)
		if err != nil {
			t.Fatalf("reference %s: %v", q, err)
		}
		return b
	}
	refWrite := func(q string) {
		t.Helper()
		ref.Begin()
		refRun(q)
		if err := ref.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []string{"CREATE TABLE kv (k INT, s VARCHAR(16), v FLOAT)", "CREATE INDEX kv_k ON kv (k)"} {
		mustExec(t, open(t, reg), q)
		refRun(q)
	}
	ss := openModes(t, db, reg)
	const prepIns, prepSel = "INSERT INTO kv VALUES (-1, 'prepared', 0.5)", "SELECT k, s FROM kv WHERE s = 'prepared'"
	for _, s := range ss {
		if _, err := s.Prepare("ins", prepIns); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Prepare("sel", prepSel); err != nil {
			t.Fatal(err)
		}
	}

	type kept struct {
		rows, want []storage.Tuple
	}
	var bare []kept
	type rep struct {
		node plan.Node
		fp   uint64
	}
	var reps []rep
	for i := 0; i < statements; i++ {
		s := ss[i%len(ss)]
		var q string
		var b *exec.Batch
		var err error
		switch step := i / len(ss); step % 8 {
		case 0, 1:
			q = fmt.Sprintf("INSERT INTO kv VALUES (%d, 's%d', %d.25)", step, i, i)
			refWrite(q)
		case 2:
			q = fmt.Sprintf("UPDATE kv SET v = v + 1.5, s = 'u%d' WHERE k = %d", i, step-5)
			refWrite(q)
		case 3:
			q = fmt.Sprintf("SELECT k + 1, s, v FROM kv WHERE k >= %d AND k < %d", step-40, step)
		case 4:
			q = fmt.Sprintf("SELECT s, count(*), sum(v) FROM kv WHERE k < %d GROUP BY s", step%60)
		case 5:
			q = fmt.Sprintf("SELECT k, s FROM kv WHERE k >= %d AND k < %d ORDER BY v DESC LIMIT 5", step-30, step)
		case 6:
			if step%3 == 0 {
				b, _, err = s.ExecPrepared("ins")
				refWrite(prepIns)
			} else {
				b, _, err = s.ExecPrepared("sel")
				q = prepSel
			}
		default:
			// Between two statements, on the session's own context.
			r, err := sql.Run(s.ExecCtx(), fmt.Sprintf("SELECT k, s, v * 2 FROM kv WHERE k < %d", step%50))
			if err != nil {
				t.Fatal(err)
			}
			bare = append(bare, kept{r.Rows, cloneRows(r.Rows)})
			q = fmt.Sprintf("DELETE FROM kv WHERE k = %d", step-60)
			refWrite(q)
		}
		if b == nil && err == nil {
			b, _, err = s.ExecSQL(q)
		}
		if err != nil {
			t.Fatalf("statement %d (%s): %v", i, q, err)
		}
		if q != "" && b.Rows != nil {
			if want := refRun(q).Rows; !sameRows(b.Rows, want) {
				t.Fatalf("statement %d on %v (%s):\n got %v\nwant %v", i, s.ExecCtx().Mode, q, b.Rows, want)
			}
		}
		if i%997 == 0 {
			for _, n := range s.stats.Drain().Reps {
				reps = append(reps, rep{n, plan.Fingerprint(n)})
			}
		}
	}

	for j, k := range bare {
		if !sameRows(k.rows, k.want) {
			t.Fatalf("rows %d taken with sql.Run between statements changed:\n got %v\nwant %v", j, k.rows, k.want)
		}
	}
	for j, r := range reps {
		if fp := plan.Fingerprint(r.node); fp != r.fp {
			t.Fatalf("observed plan %d changed after it was drained", j)
		}
	}
	const all = "SELECT k, s, v FROM kv"
	got, want := mustExec(t, ss[0], all).Rows, refRun(all).Rows
	if len(want) < 1000 || !sameRows(got, want) {
		t.Fatalf("table after %d statements: %d rows, reference %d:\n got %v\nwant %v", statements, len(got), len(want), got, want)
	}
}

// TestStatementAllocationsDoNotGrowWithResult: in steady state a
// statement allocates as many objects whatever its result's size — a scan
// at about 500 and 2 000 rows, a GROUP BY over the same inputs, a 20-row
// index range against a point select — in every execution mode: result
// arrays that outgrow the plan's estimate grow through the pool, and each
// statement reuses what the one before it released.
func TestStatementAllocationsDoNotGrowWithResult(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	db, reg := testDB(t, 2000)
	mustExec(t, open(t, reg), "CREATE INDEX t_k ON t (k)")
	for i, s := range openModes(t, db, reg) {
		// Plan each scan's template from a third literal, so that both
		// measured texts bind in place alike.
		for _, q := range []string{"SELECT k, v FROM t WHERE v > 1000.5", "SELECT grp, sum(v), count(*) FROM t WHERE v > 1000.5 GROUP BY grp"} {
			mustExec(t, s, q)
		}
		measure := func(q string, rows int) float64 {
			run := func() {
				if b, _, err := s.ExecSQL(q); err != nil || len(b.Rows) != rows {
					t.Fatalf("%s: %v, want %d rows", q, err, rows)
				}
			}
			for range 4 {
				run()
			}
			return testing.AllocsPerRun(20, run)
		}
		for _, c := range []struct {
			name         string
			small, large string
			rows         [2]int
		}{
			{"scan", "SELECT k, v FROM t WHERE v > 1500.5", "SELECT k, v FROM t WHERE v > 0.5", [2]int{499, 1999}},
			{"group_by", "SELECT grp, sum(v), count(*) FROM t WHERE v > 1500.5 GROUP BY grp",
				"SELECT grp, sum(v), count(*) FROM t WHERE v > 0.5 GROUP BY grp", [2]int{7, 7}},
			{"index", "SELECT k, v FROM t WHERE k = 100", "SELECT k, v FROM t WHERE k >= 100 AND k < 120", [2]int{1, 20}},
		} {
			small, large := measure(c.small, c.rows[0]), measure(c.large, c.rows[1])
			t.Logf("%v %s: %v objects at %d rows, %v at %d", execModes[i], c.name, small, c.rows[0], large, c.rows[1])
			if small != large {
				t.Errorf("%v %s: %v objects per statement at %d rows, %v at %d, want the same",
					execModes[i], c.name, small, c.rows[0], large, c.rows[1])
			}
		}
	}
}

// TestReleaseAndCloseGiveTheResultBack: Release and Close both give the
// last result's memory back — its rows, and the values its statement
// carved, cleared.
func TestReleaseAndCloseGiveTheResultBack(t *testing.T) {
	_, reg := testDB(t, 100)
	for _, end := range []string{"Release", "Close"} {
		s := open(t, reg)
		b := mustExec(t, s, "SELECT k + 1, v FROM t WHERE k < 20")
		row := b.Rows[3]
		if len(b.Rows) != 20 || row[0].I != 4 {
			t.Fatalf("%d rows, row 3 %v", len(b.Rows), row)
		}
		if end == "Release" {
			s.Release()
		} else {
			s.Close()
		}
		if b.Rows != nil || row[0] != (storage.Value{}) || row[1] != (storage.Value{}) {
			t.Fatalf("after %s the result holds %d rows and its row 3 %v", end, len(b.Rows), row)
		}
	}
}
