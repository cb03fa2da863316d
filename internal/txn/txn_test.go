package txn

import (
	"sync"
	"testing"

	"mb2/internal/catalog"
	"mb2/internal/hw"
	"mb2/internal/storage"
)

func testTable() *storage.Table {
	meta := &catalog.TableMeta{ID: 1, Name: "t", Schema: catalog.NewSchema(
		catalog.Column{Name: "k", Type: catalog.Int64},
		catalog.Column{Name: "v", Type: catalog.Int64},
	)}
	return storage.NewTable(meta)
}

func th() *hw.Thread { return hw.NewThread(hw.DefaultCPU()) }

func TestBeginCommitVisibility(t *testing.T) {
	m := NewManager()
	tbl := testTable()

	t1 := m.Begin(th())
	row := tbl.Insert(nil, t1.ID, storage.Tuple{storage.NewInt(1), storage.NewInt(10)})
	t1.RecordWrite(Write{Table: tbl, Row: row, New: storage.Tuple{storage.NewInt(1), storage.NewInt(10)}})

	// A concurrent snapshot must not see the in-flight insert.
	t2 := m.Begin(nil)
	if _, err := tbl.Read(nil, row, t2.ID, t2.ReadTS); err == nil {
		t.Fatal("in-flight insert visible to concurrent txn")
	}

	ts, err := t1.Commit(th())
	if err != nil || ts == 0 {
		t.Fatalf("commit failed: %v %v", ts, err)
	}
	// t2's snapshot predates the commit.
	if _, err := tbl.Read(nil, row, t2.ID, t2.ReadTS); err == nil {
		t.Fatal("commit leaked into older snapshot")
	}
	// A new transaction sees it.
	t3 := m.Begin(nil)
	if got, err := tbl.Read(nil, row, t3.ID, t3.ReadTS); err != nil || got[1].I != 10 {
		t.Fatalf("new txn cannot read committed row: %v %v", got, err)
	}
}

func TestAbortRollsBack(t *testing.T) {
	m := NewManager()
	tbl := testTable()

	setup := m.Begin(nil)
	row := tbl.Insert(nil, setup.ID, storage.Tuple{storage.NewInt(1), storage.NewInt(10)})
	setup.RecordWrite(Write{Table: tbl, Row: row})
	if _, err := setup.Commit(nil); err != nil {
		t.Fatal(err)
	}

	tx := m.Begin(nil)
	upd := storage.Tuple{storage.NewInt(1), storage.NewInt(99)}
	if err := tbl.Update(nil, row, tx.ID, tx.ReadTS, upd); err != nil {
		t.Fatal(err)
	}
	tx.RecordWrite(Write{Table: tbl, Row: row, New: upd})
	if err := tx.Abort(th()); err != nil {
		t.Fatal(err)
	}

	reader := m.Begin(nil)
	got, err := tbl.Read(nil, row, reader.ID, reader.ReadTS)
	if err != nil || got[1].I != 10 {
		t.Fatalf("abort did not roll back: %v %v", got, err)
	}
}

func TestDoubleFinishErrors(t *testing.T) {
	m := NewManager()
	tx := m.Begin(nil)
	if _, err := tx.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(nil); err != ErrTxnFinished {
		t.Fatalf("double commit: %v", err)
	}
	if err := tx.Abort(nil); err != ErrTxnFinished {
		t.Fatalf("abort after commit: %v", err)
	}
	if tx.State() != Committed {
		t.Fatal("state must stay committed")
	}
}

func TestOldestActiveTS(t *testing.T) {
	m := NewManager()
	a := m.Begin(nil)
	if _, err := a.Commit(nil); err != nil {
		t.Fatal(err)
	}
	b := m.Begin(nil) // snapshot at ts 1
	c := m.Begin(nil)
	if _, err := c.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if got := m.OldestActiveTS(); got != b.ReadTS {
		t.Fatalf("OldestActiveTS = %d, want %d", got, b.ReadTS)
	}
	if _, err := b.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if got := m.OldestActiveTS(); got != m.LastCommitTS() {
		t.Fatalf("idle OldestActiveTS = %d, want commitTS %d", got, m.LastCommitTS())
	}
}

func TestRedoBytes(t *testing.T) {
	m := NewManager()
	tbl := testTable()
	tx := m.Begin(nil)
	data := storage.Tuple{storage.NewInt(1), storage.NewInt(2)}
	tx.RecordWrite(Write{Table: tbl, Row: 0, New: data})
	tx.RecordWrite(Write{Table: tbl, Row: 1, Old: data}) // delete: header only
	if got := tx.RedoBytes(); got != 24+16+24 {
		t.Fatalf("RedoBytes = %d, want 64", got)
	}
	if len(tx.Writes()) != 2 {
		t.Fatal("Writes wrong")
	}
}

func TestStatsAndActiveCount(t *testing.T) {
	m := NewManager()
	a := m.Begin(nil)
	b := m.Begin(nil)
	if m.ActiveCount() != 2 {
		t.Fatalf("ActiveCount = %d", m.ActiveCount())
	}
	if _, err := a.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if err := b.Abort(nil); err != nil {
		t.Fatal(err)
	}
	begun, committed, aborted := m.Stats()
	if begun != 2 || committed != 1 || aborted != 1 {
		t.Fatalf("stats = %d %d %d", begun, committed, aborted)
	}
}

func TestConcurrentTimestampsUnique(t *testing.T) {
	m := NewManager()
	const workers = 8
	const perWorker = 200
	var wg sync.WaitGroup
	ids := make([][]uint64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tx := m.Begin(nil)
				ids[w] = append(ids[w], tx.ID)
				if _, err := tx.Commit(nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[uint64]bool)
	for _, list := range ids {
		for _, id := range list {
			if seen[id] {
				t.Fatalf("duplicate txn id %d", id)
			}
			seen[id] = true
		}
	}
	if m.ActiveCount() != 0 {
		t.Fatal("all txns finished but active set non-empty")
	}
}
