package session

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/plan"
	"mb2/internal/storage"
)

// lookupBoth reads id through s twice — a point lookup on t_id and a seq
// scan filtered on id — and renders both results.
func lookupBoth(t *testing.T, s *Session, id int64) (idx, seq string) {
	t.Helper()
	ib, _, err := s.ExecPlan("idx", 0, &plan.IdxScanNode{Table: "t", Index: "t_id",
		Eq: []storage.Value{storage.NewInt(id)}})
	if err != nil {
		t.Fatal(err)
	}
	sb, _, err := s.ExecPlan("seq", 0, &plan.SeqScanNode{Table: "t",
		Filter: plan.Cmp{Op: plan.EQ, L: plan.Col(0), R: plan.IntConst(id)}})
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprint(ib.RowIDs, ib.Rows), fmt.Sprint(sb.RowIDs, sb.Rows)
}

// scanAll reads all of t through s three ways — a range scan of t_id, an
// index join from every id in probe, and a seq scan — and renders each as
// its sorted rows of t.
func scanAll(t *testing.T, s *Session) (rng, join, seq string) {
	t.Helper()
	render := func(name string, node plan.Node, skip int) string {
		b, _, err := s.ExecPlan(name, 0, node)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]string, len(b.Rows))
		for i, r := range b.Rows {
			rows[i] = fmt.Sprint(r[skip:])
		}
		sort.Strings(rows)
		return fmt.Sprint(rows)
	}
	return render("range", &plan.IdxScanNode{Table: "t", Index: "t_id", Lo: []storage.Value{storage.NewInt(0)}}, 0),
		render("join", &plan.IndexJoinNode{Outer: &plan.SeqScanNode{Table: "probe"}, Table: "t", Index: "t_id", OuterKeys: []int{0}}, 1),
		render("all", &plan.SeqScanNode{Table: "t"}, 0)
}

// TestSQLWritesKeepIndexExact drives SQL DML through the engine's one write
// path and holds every index read — point lookup, range scan, index join —
// to what a seq scan returns: while a DELETE or a key change is
// uncommitted, another session still finds the row through the index and
// the writer finds it only under its new key, once even when the key came
// back to one the row held; an aborted INSERT leaves no entry; and a DELETE
// or key-changing UPDATE that hits a write conflict partway aborts without
// losing any entry of the rows it had already written.
func TestSQLWritesKeepIndexExact(t *testing.T) {
	for _, mode := range []catalog.ExecutionMode{catalog.Interpret, catalog.Compile, catalog.Vectorize} {
		for _, parts := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v/parts=%d", mode, parts), func(t *testing.T) {
				knobs := catalog.DefaultKnobs()
				knobs.ExecutionMode = mode
				knobs.PartitionCount = parts
				db := engine.Open(knobs)
				reg := NewRegistry(db, 0)
				a, b, c := open(t, reg), open(t, reg), open(t, reg)
				mustExec(t, a, "CREATE TABLE t (id INT, v INT)")
				mustExec(t, a, "CREATE UNIQUE INDEX t_id ON t (id)")
				mustExec(t, a, "CREATE TABLE probe (id INT)")
				for i := 0; i < 20; i++ {
					mustExec(t, a, fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, i*10))
				}
				every := func() []int64 {
					var ids []int64
					for i := int64(0); i < 20; i++ {
						ids = append(ids, i, i+100, i+1000)
					}
					return ids
				}
				for _, id := range every() {
					mustExec(t, a, fmt.Sprintf("INSERT INTO probe VALUES (%d)", id))
				}
				agree := func(s *Session, ids ...int64) {
					t.Helper()
					for _, id := range ids {
						if idx, seq := lookupBoth(t, s, id); idx != seq {
							t.Fatalf("id %d: index lookup %s, seq scan %s", id, idx, seq)
						}
					}
					if rng, join, seq := scanAll(t, s); rng != seq || join != seq {
						t.Fatalf("range scan %s, index join %s, seq scan %s", rng, join, seq)
					}
				}
				exact := func() {
					t.Helper()
					if err := db.CheckIndexes(); err != nil {
						t.Fatal(err)
					}
				}

				// Uncommitted DELETE and key changes, 4 -> 1004 and
				// 8 -> 1008 -> 8: the old keys still find the rows another
				// session sees; the writer finds each row under its new key
				// only, once, and a later write through the old key misses.
				a.ExecCtx().Begin()
				mustExec(t, a, "DELETE FROM t WHERE id = 3")
				mustExec(t, a, "UPDATE t SET id = 1004 WHERE id = 4")
				mustExec(t, a, "UPDATE t SET v = -4 WHERE id = 4")
				mustExec(t, a, "UPDATE t SET id = 1008 WHERE id = 8")
				mustExec(t, a, "UPDATE t SET id = 8 WHERE id = 1008")
				agree(c, 3, 4, 1004, 8, 1008)
				agree(a, 3, 4, 1004, 8, 1008)
				moved, _, err := a.ExecPlan("seq", 0, &plan.SeqScanNode{Table: "t",
					Filter: plan.Cmp{Op: plan.EQ, L: plan.Col(0), R: plan.IntConst(1004)}})
				if err != nil {
					t.Fatal(err)
				}
				if len(moved.Rows) != 1 || moved.Rows[0][1].I != 40 {
					t.Fatalf("UPDATE ... WHERE id = 4 reached the row now keyed 1004: %v", moved.Rows)
				}
				if err := a.ExecCtx().Abort(); err != nil {
					t.Fatal(err)
				}

				// Aborted INSERT: no stale entry.
				a.ExecCtx().Begin()
				mustExec(t, a, "INSERT INTO t VALUES (1019, 0)")
				if err := a.ExecCtx().Abort(); err != nil {
					t.Fatal(err)
				}
				agree(c, 1019)
				exact()

				// A holds row 5; B's auto-commit DELETE and key change both
				// conflict there and abort.
				a.ExecCtx().Begin()
				mustExec(t, a, "UPDATE t SET v = -1 WHERE id = 5")
				for _, q := range []string{"DELETE FROM t WHERE id < 10", "UPDATE t SET id = id + 100 WHERE id < 10"} {
					if _, _, err := b.ExecSQL(q); !errors.Is(err, storage.ErrWriteConflict) {
						t.Fatalf("%s: err = %v, want a write conflict", q, err)
					}
				}
				if err := a.ExecCtx().Commit(); err != nil {
					t.Fatal(err)
				}
				agree(c, every()...)
				exact()

				// Committed key changes, one of them 9 -> 1009 -> 9, and a
				// delete: the index follows.
				mustExec(t, b, "UPDATE t SET id = id + 1000 WHERE id = 6")
				mustExec(t, b, "DELETE FROM t WHERE id = 7")
				b.ExecCtx().Begin()
				mustExec(t, b, "UPDATE t SET id = 1009 WHERE id = 9")
				mustExec(t, b, "UPDATE t SET id = 9 WHERE id = 1009")
				if err := b.ExecCtx().Commit(); err != nil {
					t.Fatal(err)
				}
				agree(c, every()...)
				exact()
			})
		}
	}
}
