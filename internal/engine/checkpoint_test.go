package engine

import (
	"errors"
	"testing"

	"mb2/internal/catalog"
	"mb2/internal/hw"
	"mb2/internal/storage"
	"mb2/internal/wal"
)

// kvWriter commits n insert transactions through the logged path.
func kvWriter(t *testing.T, db *DB, tbl *storage.Table, start, n int64) {
	t.Helper()
	for i := start; i < start+n; i++ {
		tx := db.Txns.Begin(nil)
		if _, err := db.Insert(tx, nil, tbl, storage.Tuple{storage.NewInt(i), storage.NewInt(i * 10)}, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := db.CommitLogged(tx, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
}

func kvSchema() catalog.Schema {
	return catalog.NewSchema(
		catalog.Column{Name: "id", Type: catalog.Int64},
		catalog.Column{Name: "val", Type: catalog.Int64},
	)
}

// scanKV returns id→val for all rows visible at the last commit.
func scanKV(db *DB) map[int64]int64 {
	out := make(map[int64]int64)
	db.Table("kv").Scan(nil, 0, db.Txns.LastCommitTS(), func(_ storage.RowID, data storage.Tuple) bool {
		out[data[0].I] = data[1].I
		return true
	})
	return out
}

func TestCheckpointTruncatesLogAndRecovers(t *testing.T) {
	primary := Open(catalog.DefaultKnobs())
	if _, err := primary.CreateTable("kv", kvSchema()); err != nil {
		t.Fatal(err)
	}
	tbl := primary.Table("kv")

	kvWriter(t, primary, tbl, 0, 20)
	primary.WAL.Serialize(nil)
	if _, err := primary.WAL.Flush(nil); err != nil {
		t.Fatal(err)
	}
	preTruncate := len(primary.WAL.Durable())

	cth := hw.NewThread(hw.DefaultCPU())
	st, err := primary.Checkpoint(cth)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows != 20 || st.Epoch != 1 || st.SnapshotTS != 20 {
		t.Fatalf("checkpoint stats: %+v", st)
	}
	if st.LogBytesTruncated != preTruncate {
		t.Fatalf("truncated %d bytes, log had %d", st.LogBytesTruncated, preTruncate)
	}
	if got := len(primary.WAL.Durable()); got >= preTruncate {
		t.Fatalf("log not truncated: %d >= %d", got, preTruncate)
	}
	if c := cth.Counters(); c.BlockWrites <= 0 {
		t.Fatal("checkpoint must charge block writes")
	}

	// Post-checkpoint traffic lands in the new epoch's log.
	kvWriter(t, primary, tbl, 20, 5)
	primary.WAL.Serialize(nil)
	if _, err := primary.WAL.Flush(nil); err != nil {
		t.Fatal(err)
	}

	replica := Open(catalog.DefaultKnobs())
	if _, err := replica.CreateTable("kv", kvSchema()); err != nil {
		t.Fatal(err)
	}
	rst, err := replica.RecoverImages(nil, primary.CheckpointImage(), primary.WAL.Durable())
	if err != nil {
		t.Fatal(err)
	}
	if rst.CheckpointRows != 20 || rst.Committed != 5 || rst.Applied != 5 {
		t.Fatalf("recovery stats: %+v", rst)
	}
	if got, want := replica.Txns.LastCommitTS(), primary.Txns.LastCommitTS(); got != want {
		t.Fatalf("recovered commit ts %d, want %d", got, want)
	}
	got, want := scanKV(replica), scanKV(primary)
	if len(got) != 25 || len(got) != len(want) {
		t.Fatalf("recovered %d rows, primary has %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("kv[%d] = %d, want %d", k, got[k], v)
		}
	}
}

func TestCheckpointRequiresQuiesce(t *testing.T) {
	db := Open(catalog.DefaultKnobs())
	if _, err := db.CreateTable("kv", kvSchema()); err != nil {
		t.Fatal(err)
	}
	tx := db.Txns.Begin(nil)
	if _, err := db.Checkpoint(nil); err == nil {
		t.Fatal("checkpoint with an active transaction must error")
	}
	if err := tx.Abort(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Checkpoint(nil); err != nil {
		t.Fatal(err)
	}
}

// A crash between the checkpoint write and the log truncation leaves an
// old-epoch log the checkpoint fully covers; recovery must not double-apply
// it.
func TestRecoverySkipsStaleEpochLog(t *testing.T) {
	primary := Open(catalog.DefaultKnobs())
	if _, err := primary.CreateTable("kv", kvSchema()); err != nil {
		t.Fatal(err)
	}
	kvWriter(t, primary, primary.Table("kv"), 0, 10)
	primary.WAL.Serialize(nil)
	if _, err := primary.WAL.Flush(nil); err != nil {
		t.Fatal(err)
	}
	// Capture the log as it stood before truncation, then checkpoint.
	staleLog := primary.WAL.Durable()
	if _, err := primary.Checkpoint(nil); err != nil {
		t.Fatal(err)
	}

	replica := Open(catalog.DefaultKnobs())
	if _, err := replica.CreateTable("kv", kvSchema()); err != nil {
		t.Fatal(err)
	}
	st, err := replica.RecoverImages(nil, primary.CheckpointImage(), staleLog)
	if err != nil {
		t.Fatal(err)
	}
	if !st.StaleLog || st.Applied != 0 || st.CheckpointRows != 10 {
		t.Fatalf("stale-epoch recovery stats: %+v", st)
	}
	if got := scanKV(replica); len(got) != 10 {
		t.Fatalf("recovered %d rows, want 10", len(got))
	}
	if got, want := replica.Txns.LastCommitTS(), primary.Txns.LastCommitTS(); got != want {
		t.Fatalf("recovered commit ts %d, want %d", got, want)
	}
}

// Regression for index rebuild running on a nil hw thread: the rebuild's
// reads and inserts must be charged to the recovering thread, like the log
// reads already are.
func TestRecoveryChargesIndexRebuild(t *testing.T) {
	primary := Open(catalog.DefaultKnobs())
	if _, err := primary.CreateTable("kv", kvSchema()); err != nil {
		t.Fatal(err)
	}
	kvWriter(t, primary, primary.Table("kv"), 0, 50)
	primary.WAL.Serialize(nil)
	if _, err := primary.WAL.Flush(nil); err != nil {
		t.Fatal(err)
	}
	img := primary.WAL.Durable()

	recover := func(withIndex bool) hw.Counters {
		replica := Open(catalog.DefaultKnobs())
		if _, err := replica.CreateTable("kv", kvSchema()); err != nil {
			t.Fatal(err)
		}
		if withIndex {
			if _, _, err := replica.CreateIndex(nil, hw.DefaultCPU(), "kv_pk", "kv", []string{"id"}, true, 1); err != nil {
				t.Fatal(err)
			}
		}
		th := hw.NewThread(hw.DefaultCPU())
		if _, err := replica.Recover(th, img); err != nil {
			t.Fatal(err)
		}
		return th.Counters()
	}
	bare, indexed := recover(false), recover(true)
	if indexed.Instructions <= bare.Instructions {
		t.Fatalf("index rebuild not charged: %v instructions with index, %v without",
			indexed.Instructions, bare.Instructions)
	}
}

// Recovery tolerates a torn log tail: for every crash offset into the
// durable image, it must succeed and recover exactly the transactions whose
// commit record survived intact.
func TestRecoverToleratesTornTail(t *testing.T) {
	primary := Open(catalog.DefaultKnobs())
	if _, err := primary.CreateTable("kv", kvSchema()); err != nil {
		t.Fatal(err)
	}
	kvWriter(t, primary, primary.Table("kv"), 0, 8)
	primary.WAL.Serialize(nil)
	if _, err := primary.WAL.Flush(nil); err != nil {
		t.Fatal(err)
	}
	img := primary.WAL.Durable()

	prevCommitted := uint64(0)
	for cut := 0; cut <= len(img); cut++ {
		replica := Open(catalog.DefaultKnobs())
		if _, err := replica.CreateTable("kv", kvSchema()); err != nil {
			t.Fatal(err)
		}
		st, err := replica.RecoverImages(nil, nil, img[:cut])
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if st.Committed < prevCommitted {
			t.Fatalf("cut=%d: committed count went backwards (%d -> %d)", cut, prevCommitted, st.Committed)
		}
		prevCommitted = st.Committed
		if got := uint64(len(scanKV(replica))); got != st.Committed {
			t.Fatalf("cut=%d: %d rows visible, %d committed", cut, got, st.Committed)
		}
	}
	if prevCommitted != 8 {
		t.Fatalf("full image recovered %d committed txns, want 8", prevCommitted)
	}
}

// The checkpoint device holds one image, the last: after each of three
// checkpoints of a growing table its length is that checkpoint's image. A
// checkpoint whose device dies inside the atomic switch leaves the previous
// image whole beside the log that extends it, and recovery restores every
// committed row from the two.
func TestCheckpointDeviceHoldsOneImage(t *testing.T) {
	// run checkpoints a table that grows by ten rows before each, on a
	// checkpoint device that dies at crashAt bytes of one image (-1: never).
	run := func(crashAt int64) (db *DB, dev *hw.FaultDevice, images []int, err error) {
		plan := hw.NoFaults()
		plan.CrashAtByte = crashAt
		dev = hw.NewFaultDevice(nil, plan)
		db = OpenOnDevices(catalog.DefaultKnobs(), nil, dev)
		if _, err := db.CreateTable("kv", kvSchema()); err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 3; i++ {
			kvWriter(t, db, db.Table("kv"), i*10, 10)
			st, err := db.Checkpoint(nil)
			if err != nil {
				return db, dev, images, err
			}
			if dev.Len() != st.ImageBytes {
				t.Fatalf("after checkpoint %d the device holds %d bytes, the image is %d", i+1, dev.Len(), st.ImageBytes)
			}
			images = append(images, st.ImageBytes)
		}
		return db, dev, images, nil
	}
	db, _, images, err := run(-1)
	if err != nil {
		t.Fatal(err)
	}
	if !(images[0] < images[1] && images[1] < images[2]) {
		t.Fatalf("image sizes %v do not grow with the table", images)
	}
	ck, ok, err := wal.LastValidCheckpoint(db.CheckpointImage())
	if err != nil || !ok || ck.Epoch != 3 || len(ck.Records) != 30 {
		t.Fatalf("device image: epoch %d, %d records, ok=%v err=%v", ck.Epoch, len(ck.Records), ok, err)
	}

	// The first image fits below the crash point, the second does not.
	db, dev, survived, err := run(int64(images[0]))
	if !errors.Is(err, hw.ErrDeviceCrashed) || len(survived) != 1 {
		t.Fatalf("second checkpoint: err = %v after %d checkpoints, want a crashed device after 1", err, len(survived))
	}
	if dev.Len() != images[0] || db.WAL.Epoch() != 1 {
		t.Fatalf("failed switch left %d device bytes and log epoch %d, want the first image's %d and epoch 1",
			dev.Len(), db.WAL.Epoch(), images[0])
	}
	replica := Open(catalog.DefaultKnobs())
	if _, err := replica.CreateTable("kv", kvSchema()); err != nil {
		t.Fatal(err)
	}
	rst, err := replica.RecoverImages(nil, db.CheckpointImage(), db.WAL.Durable())
	if err != nil {
		t.Fatal(err)
	}
	if rst.CheckpointRows != 10 || rst.Committed != 10 || rst.StaleLog || len(scanKV(replica)) != 20 {
		t.Fatalf("recovery beside a failed switch: %+v, %d rows", rst, len(scanKV(replica)))
	}
}
