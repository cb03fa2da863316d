package session

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/storage"
)

// writeTraffic is a seeded stream of single-row INSERT, UPDATE and DELETE
// statements over t(k, v) with keys in [0, keys). Each statement is one
// write transaction of two redo records: the row's and the commit's.
type writeTraffic struct {
	rng  *rand.Rand
	keys int
	live map[int]bool
}

func newWriteTraffic(seed int64, keys int) *writeTraffic {
	return &writeTraffic{rng: rand.New(rand.NewSource(seed)), keys: keys, live: map[int]bool{}}
}

func (w *writeTraffic) next() string {
	k := w.rng.Intn(w.keys)
	switch {
	case !w.live[k]:
		w.live[k] = true
		return fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", k, w.rng.Intn(1000))
	case w.rng.Intn(4) == 0:
		delete(w.live, k)
		return fmt.Sprintf("DELETE FROM t WHERE k = %d", k)
	default:
		return fmt.Sprintf("UPDATE t SET v = %d WHERE k = %d", w.rng.Intn(1000), k)
	}
}

// kvDB opens an engine with t(k, v) and an index on k, created over SQL
// through a registry on it, and returns the engine and the registry.
func kvDB(t *testing.T) (*engine.DB, *Registry) {
	t.Helper()
	db := engine.Open(catalog.DefaultKnobs())
	reg := NewRegistry(db, 0)
	s := open(t, reg)
	mustExec(t, s, "CREATE TABLE t (k INT, v INT)")
	mustExec(t, s, "CREATE INDEX t_k ON t (k)")
	return db, reg
}

// renderKV renders t's rows visible at ts, sorted.
func renderKV(db *engine.DB, ts uint64) string {
	var rows []string
	db.Table("t").Scan(nil, 0, ts, func(row storage.RowID, data storage.Tuple) bool {
		rows = append(rows, fmt.Sprintf("%d:%d=%d", row, data[0].I, data[1].I))
		return true
	})
	sort.Strings(rows)
	return strings.Join(rows, " ")
}

// TestRegistryMaintainerBoundsWALQueue: the registry's maintainer passes
// every maintainEvery auto-commit DML statements, so after any statement the
// WAL queue holds at most the records of the write transactions since the
// last pass — where it used to grow with every write ever made — and the
// passes flush the log and prune the versions UPDATEs leave behind.
func TestRegistryMaintainerBoundsWALQueue(t *testing.T) {
	db, reg := kvDB(t)
	s := open(t, reg)
	traffic := newWriteTraffic(1, 64)
	passes, since := uint64(0), 0
	for i := 0; i < 2*maintainEvery+100; i++ {
		mustExec(t, s, traffic.next())
		since++
		if p := reg.maint.Stats().Passes; p != passes {
			passes, since = p, 0
		}
		if pending := db.WAL.PendingRecords(); since >= maintainEvery || pending > 2*since {
			t.Fatalf("statement %d: %d records queued, %d write transactions since the last pass", i, pending, since)
		}
	}
	st := reg.maint.Stats()
	_, _, _, _, flushes := db.WAL.Stats()
	if st.Passes != 2 || flushes == 0 || st.FlushedBytes == 0 || st.VersionsPruned == 0 {
		t.Fatalf("maintainer %+v after %d statements (%d WAL flushes)", st, 2*maintainEvery+100, flushes)
	}
}

// TestCommitContract: commits are acknowledged before they are durable, and
// a commit is durable once a completed pass covers it. The durable log is
// cut at statement boundaries of a seeded three-session run — every 331st,
// and the ones on either side of each pass — and a fresh engine recovers
// from each cut: it must hold every commit acknowledged before the last
// completed pass, and exactly the live rows at the timestamp it recovers.
func TestCommitContract(t *testing.T) {
	db, reg := kvDB(t)
	sessions := []*Session{open(t, reg), open(t, reg), open(t, reg)}
	traffic := newWriteTraffic(2, 96)
	passes, covered, cuts := uint64(0), uint64(0), 0
	for i := 0; i < 2*maintainEvery+100; i++ {
		mustExec(t, sessions[i%len(sessions)], traffic.next())
		passed := reg.maint.Stats().Passes != passes
		if passed {
			passes, covered = passes+1, db.Txns.LastCommitTS()
		}
		if !passed && i%331 != 0 && (i+2)%maintainEvery != 0 {
			continue
		}
		fresh, _ := kvDB(t)
		if _, err := fresh.RecoverImages(nil, nil, db.WAL.Durable()); err != nil {
			t.Fatalf("statement %d: %v", i, err)
		}
		k := fresh.Txns.LastCommitTS()
		if k < covered {
			t.Fatalf("statement %d: recovered %d commits, %d were acknowledged before the last pass", i, k, covered)
		}
		if got, want := renderKV(fresh, k), renderKV(db, k); got != want {
			t.Fatalf("statement %d: recovered at ts %d\n%s\nlive\n%s", i, k, got, want)
		}
		cuts++
	}
	if passes != 2 || cuts < 2*3 {
		t.Fatalf("%d passes, %d cuts: the run never exercised the contract", passes, cuts)
	}
}
