package engine

import (
	"testing"

	"mb2/internal/catalog"
	"mb2/internal/hw"
	"mb2/internal/metrics"
	"mb2/internal/ou"
	"mb2/internal/storage"
)

func openWithItems(t *testing.T, n int) *DB {
	t.Helper()
	db := Open(catalog.DefaultKnobs())
	schema := catalog.NewSchema(
		catalog.Column{Name: "id", Type: catalog.Int64},
		catalog.Column{Name: "grp", Type: catalog.Int64},
	)
	if _, err := db.CreateTable("items", schema); err != nil {
		t.Fatal(err)
	}
	rows := make([]storage.Tuple, n)
	for i := range rows {
		rows[i] = storage.Tuple{storage.NewInt(int64(i)), storage.NewInt(int64(i % 7))}
	}
	if err := db.BulkLoad("items", rows); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestOpenCreateLoad(t *testing.T) {
	db := openWithItems(t, 100)
	if db.RowCount("items") != 100 {
		t.Fatalf("RowCount = %v", db.RowCount("items"))
	}
	if db.RowCount("ghost") != 0 {
		t.Fatal("unknown table must count 0")
	}
	if err := db.BulkLoad("ghost", nil); err == nil {
		t.Fatal("loading unknown table must fail")
	}
	if _, err := db.CreateTable("items", catalog.Schema{}); err == nil {
		t.Fatal("duplicate create must fail")
	}
}

func TestCreateIndexEmitsPerThreadRecords(t *testing.T) {
	db := openWithItems(t, 5000)
	col := metrics.NewCollector()
	bt, res, err := db.CreateIndex(col, hw.DefaultCPU(), "items_grp", "items", []string{"grp"}, false, 4)
	if err != nil {
		t.Fatal(err)
	}
	if bt.NumRows() != 5000 || bt.NumKeys() != 7 {
		t.Fatalf("index contents wrong: rows=%d keys=%d", bt.NumRows(), bt.NumKeys())
	}
	if res.ElapsedUS <= 0 {
		t.Fatal("build must take time")
	}
	recs := col.Drain()
	if len(recs) != 1 {
		t.Fatalf("want one critical-path record per build, got %d", len(recs))
	}
	r := recs[0]
	if r.Kind != ou.IndexBuild {
		t.Fatalf("kind = %v", r.Kind)
	}
	// Only 7 distinct keys exist, so at most 7 of the 4 requested threads
	// can shard the key space; here 4 fit.
	if r.Features[4] != 4 {
		t.Fatalf("effective threads feature = %v", r.Features[4])
	}
	if r.Features[0] != 5000 || r.Features[3] != 7 {
		t.Fatalf("features = %v", r.Features)
	}
	// The record is the slowest thread's profile: it must carry the build's
	// critical-path elapsed time.
	if r.Labels.ElapsedUS != res.ElapsedUS {
		t.Fatalf("record elapsed %v != build critical path %v", r.Labels.ElapsedUS, res.ElapsedUS)
	}

	// With more threads than distinct keys, effective parallelism caps.
	col2 := metrics.NewCollector()
	if _, _, err := db.CreateIndex(col2, hw.DefaultCPU(), "items_grp16", "items", []string{"grp"}, false, 16); err != nil {
		t.Fatal(err)
	}
	recs2 := col2.Drain()
	if len(recs2) != 1 || recs2[0].Features[4] > 7 {
		t.Fatalf("effective threads must cap at cardinality: %v", recs2[0].Features)
	}
	if got := db.Catalog.TableIndexes(db.Table("items").Meta.ID); len(got) != 2 || db.Index(got[0].Name) == nil || db.Index(got[1].Name) == nil {
		t.Fatalf("items has %d materialized indexes, want 2", len(got))
	}
}

func TestDropIndex(t *testing.T) {
	db := openWithItems(t, 100)
	if _, _, err := db.CreateIndex(nil, hw.DefaultCPU(), "ix", "items", []string{"id"}, true, 1); err != nil {
		t.Fatal(err)
	}
	if db.Index("ix") == nil {
		t.Fatal("index missing after create")
	}
	if err := db.DropIndex("ix"); err != nil {
		t.Fatal(err)
	}
	if db.Index("ix") != nil {
		t.Fatal("index present after drop")
	}
	if err := db.DropIndex("ix"); err == nil {
		t.Fatal("double drop must fail")
	}
}

func TestBulkLoadMaintainsExistingIndex(t *testing.T) {
	db := openWithItems(t, 10)
	if _, _, err := db.CreateIndex(nil, hw.DefaultCPU(), "ix", "items", []string{"id"}, true, 1); err != nil {
		t.Fatal(err)
	}
	if err := db.BulkLoad("items", []storage.Tuple{
		{storage.NewInt(999), storage.NewInt(0)},
	}); err != nil {
		t.Fatal(err)
	}
	if db.Index("ix").NumRows() != 11 {
		t.Fatalf("index rows = %d, want 11", db.Index("ix").NumRows())
	}
}

func TestDistinctCountCachedAndInvalidated(t *testing.T) {
	db := openWithItems(t, 70)
	if got := db.DistinctCount("items", []int{1}); got != 7 {
		t.Fatalf("DistinctCount = %v, want 7", got)
	}
	// Cached value survives.
	if got := db.DistinctCount("items", []int{1}); got != 7 {
		t.Fatalf("cached DistinctCount = %v", got)
	}
	// Load new group values: cache must invalidate.
	if err := db.BulkLoad("items", []storage.Tuple{
		{storage.NewInt(1000), storage.NewInt(100)},
	}); err != nil {
		t.Fatal(err)
	}
	if got := db.DistinctCount("items", []int{1}); got != 8 {
		t.Fatalf("post-load DistinctCount = %v, want 8", got)
	}
	if db.DistinctCount("ghost", []int{0}) != 0 {
		t.Fatal("unknown table must count 0")
	}
}

func TestKnobsSwap(t *testing.T) {
	db := openWithItems(t, 1)
	k := db.Knobs()
	k.ExecutionMode = catalog.Compile
	db.SetKnobs(k)
	if db.Knobs().ExecutionMode != catalog.Compile {
		t.Fatal("knob change lost")
	}
}

func TestRecoverFromWAL(t *testing.T) {
	// Run transactional writes on a primary, flush its log, then recover a
	// fresh instance with the same schema from the durable image.
	primary := Open(catalog.DefaultKnobs())
	schema := catalog.NewSchema(
		catalog.Column{Name: "id", Type: catalog.Int64},
		catalog.Column{Name: "val", Type: catalog.Int64},
	)
	if _, err := primary.CreateTable("kv", schema); err != nil {
		t.Fatal(err)
	}
	tbl := primary.Table("kv")

	write := func(commit bool, id, val int64) {
		tx := primary.Txns.Begin(nil)
		if _, err := primary.Insert(tx, nil, tbl, storage.Tuple{storage.NewInt(id), storage.NewInt(val)}, 1); err != nil {
			t.Fatal(err)
		}
		if commit {
			if _, err := primary.CommitLogged(tx, nil, nil); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := primary.Abort(tx, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := int64(0); i < 10; i++ {
		write(true, i, i*10)
	}
	write(false, 99, 990) // lost at the crash
	primary.WAL.Serialize(nil)
	primary.WAL.Flush(nil)

	// "Crash": new instance, same DDL (including an index), replay.
	replica := Open(catalog.DefaultKnobs())
	if _, err := replica.CreateTable("kv", schema); err != nil {
		t.Fatal(err)
	}
	if _, _, err := replica.CreateIndex(nil, hw.DefaultCPU(), "kv_pk", "kv", []string{"id"}, true, 1); err != nil {
		t.Fatal(err)
	}
	rth := hw.NewThread(hw.DefaultCPU())
	st, err := replica.RecoverImages(rth, nil, primary.WAL.Durable())
	if err != nil {
		t.Fatal(err)
	}
	if st.Applied != 10 {
		t.Fatalf("applied %d records, want 10", st.Applied)
	}
	if replica.RowCount("kv") != 10 {
		t.Fatalf("recovered rows = %v", replica.RowCount("kv"))
	}
	// Data visible through a scan at the current snapshot.
	seen := 0
	replica.Table("kv").Scan(nil, 0, replica.Txns.LastCommitTS(), func(_ storage.RowID, data storage.Tuple) bool {
		if data[1].I != data[0].I*10 {
			t.Fatalf("recovered tuple wrong: %v", data)
		}
		seen++
		return true
	})
	if seen != 10 {
		t.Fatalf("scan saw %d rows", seen)
	}
	// Index rebuilt over recovered data.
	if replica.Index("kv_pk").NumRows() != 10 {
		t.Fatalf("rebuilt index rows = %d", replica.Index("kv_pk").NumRows())
	}
	// Recovery charged block reads for the log image.
	if rth.Counters().BlockReads <= 0 {
		t.Fatal("recovery must charge block reads")
	}
	// Corrupt image surfaces an error.
	if _, err := replica.RecoverImages(nil, nil, []byte{1, 2, 3}); err == nil {
		t.Fatal("corrupt image must error")
	}
}
