package gc

import (
	"testing"

	"mb2/internal/catalog"
	"mb2/internal/hw"
	"mb2/internal/storage"
	"mb2/internal/txn"
)

func setup() (*txn.Manager, *storage.Table, *Collector) {
	mgr := txn.NewManager()
	meta := &catalog.TableMeta{ID: 1, Name: "t", Schema: catalog.NewSchema(
		catalog.Column{Name: "k", Type: catalog.Int64},
		catalog.Column{Name: "v", Type: catalog.Int64},
	)}
	tbl := storage.NewTable(meta)
	c := NewCollector(mgr)
	c.Register(tbl)
	return mgr, tbl, c
}

func TestRunPrunesRetiredVersions(t *testing.T) {
	mgr, tbl, c := setup()

	ins := mgr.Begin(nil)
	row := tbl.Insert(nil, ins.ID, storage.Tuple{storage.NewInt(1), storage.NewInt(0)})
	ins.RecordWrite(txn.Write{Table: tbl, Row: row})
	if _, err := ins.Commit(nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		tx := mgr.Begin(nil)
		data := storage.Tuple{storage.NewInt(1), storage.NewInt(int64(i))}
		if err := tbl.Update(nil, row, tx.ID, tx.ReadTS, data); err != nil {
			t.Fatal(err)
		}
		tx.RecordWrite(txn.Write{Table: tbl, Row: row, New: data})
		if _, err := tx.Commit(nil); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.VersionCount() != 11 {
		t.Fatalf("VersionCount = %d", tbl.VersionCount())
	}

	th := hw.NewThread(hw.DefaultCPU())
	st := c.Run(th)
	if st.VersionsPruned != 10 {
		t.Fatalf("pruned %d, want 10", st.VersionsPruned)
	}
	if st.TxnsProcessed != 11 {
		t.Fatalf("txns processed %d, want 11", st.TxnsProcessed)
	}
	if th.Counters().Instructions <= 0 {
		t.Fatal("GC must charge work")
	}
}

func TestRunRespectsActiveSnapshot(t *testing.T) {
	mgr, tbl, c := setup()

	ins := mgr.Begin(nil)
	row := tbl.Insert(nil, ins.ID, storage.Tuple{storage.NewInt(1), storage.NewInt(0)})
	ins.RecordWrite(txn.Write{Table: tbl, Row: row})
	if _, err := ins.Commit(nil); err != nil {
		t.Fatal(err)
	}

	pinned := mgr.Begin(nil) // holds snapshot at ts 1

	for i := 0; i < 5; i++ {
		tx := mgr.Begin(nil)
		data := storage.Tuple{storage.NewInt(1), storage.NewInt(int64(i))}
		if err := tbl.Update(nil, row, tx.ID, tx.ReadTS, data); err != nil {
			t.Fatal(err)
		}
		tx.RecordWrite(txn.Write{Table: tbl, Row: row, New: data})
		if _, err := tx.Commit(nil); err != nil {
			t.Fatal(err)
		}
	}

	c.Run(nil)
	// Pinned reader must still see its version.
	got, err := tbl.Read(nil, row, pinned.ID, pinned.ReadTS)
	if err != nil || got[1].I != 0 {
		t.Fatalf("GC broke snapshot isolation: %v %v", got, err)
	}

	if _, err := pinned.Commit(nil); err != nil {
		t.Fatal(err)
	}
	st := c.Run(nil)
	if st.VersionsPruned == 0 {
		t.Fatal("post-release GC must prune")
	}
	if tbl.VersionCount() != 1 {
		t.Fatalf("final chain = %d versions", tbl.VersionCount())
	}
}

func TestTxnsProcessedDelta(t *testing.T) {
	mgr, _, c := setup()
	for i := 0; i < 3; i++ {
		tx := mgr.Begin(nil)
		if _, err := tx.Commit(nil); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Run(nil); st.TxnsProcessed != 3 {
		t.Fatalf("first run processed %d", st.TxnsProcessed)
	}
	if st := c.Run(nil); st.TxnsProcessed != 0 {
		t.Fatalf("idle run processed %d", st.TxnsProcessed)
	}
}
