package repl

import (
	"runtime"
	"strings"
	"testing"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/server"
	"mb2/internal/storage"
	"mb2/internal/wal"
)

// blobFactory is a schema whose rows are a kilobyte wide, so a log of many
// megabytes takes only thousands of transactions.
func blobFactory() (*engine.DB, error) {
	db := engine.OpenOnDevices(catalog.DefaultKnobs(), nil, nil)
	sch := catalog.NewSchema(
		catalog.Column{Name: "k", Type: catalog.Int64},
		catalog.Column{Name: "v", Type: catalog.Varchar},
	)
	_, err := db.CreateTable("blob", sch)
	return db, err
}

var blobValue = strings.Repeat("x", 1000)

// commitBlobs commits n one-row transactions on db and flushes them.
func commitBlobs(t *testing.T, db *engine.DB, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := commitRow(db, "blob", storage.Tuple{storage.NewInt(int64(i)), storage.NewString(blobValue)}); err != nil {
			t.Fatal(err)
		}
	}
	db.WAL.Serialize(nil)
	if _, err := db.WAL.Flush(nil); err != nil {
		t.Fatal(err)
	}
}

// The tail's capacity depends on how many bytes it holds, not on the sizes of
// the frames that brought them: the same 3 MB in frames of any size passes
// only through rungs of the one ladder and ends on the same rung.
func TestAppendTailCapacityIgnoresFrameSizes(t *testing.T) {
	const total = 3<<20 + 4321
	payload := make([]byte, total)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	rung := map[int]bool{}
	last := tailMinCap
	for ; last < total; last += last / 4 {
		rung[last] = true
	}
	rung[last] = true
	for _, frame := range []int{97, 4096, 87_001, 150_000, total} {
		var tail []byte
		for off := 0; off < total; off += frame {
			tail = appendTail(tail, payload[off:min(off+frame, total)])
			if !rung[cap(tail)] {
				t.Fatalf("frames of %d: capacity %d is no rung of the ladder", frame, cap(tail))
			}
		}
		if string(tail) != string(payload) {
			t.Fatalf("frames of %d: bytes differ", frame)
		}
		if cap(tail) != last {
			t.Fatalf("frames of %d: ends at capacity %d, want %d", frame, cap(tail), last)
		}
	}
}

// One Group.Sync and one eager apply cost what is new, not what was shipped
// before: shipping the same eight-transaction suffix allocates the same
// whether the log before it is 1 MB or 16 MB long. The replica is eager, so
// the Sync waits for its apply and the bytes are those of both; a second
// eager replica, fed the same suffixes by hand, has the heap objects of its
// one apply counted — every decoded record allocates its payload, so that
// count is the records it decoded. Both are counts, so the test gates on a
// shared host where times do not.
func TestSyncAndApplyCostOnlyWhatIsNew(t *testing.T) {
	db, err := blobFactory()
	if err != nil {
		t.Fatal(err)
	}
	grp, err := NewGroup(db, blobFactory, server.NewPipe(), GroupConfig{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer grp.Close()
	solo, err := NewReplica(9, blobFactory, ReplicaConfig{})
	if err != nil {
		t.Fatal(err)
	}
	soloBytes := 0
	feedSolo := func() (mallocs uint64) {
		_, unsent := db.WAL.DurableSince(0, soloBytes)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := solo.HandleFrame(ShipFrame{Type: ShipAppend, Offset: uint64(soloBytes), Payload: unsent})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		soloBytes += len(unsent)
		return after.Mallocs - before.Mallocs
	}
	// measure ships one suffix of eight transactions and returns the bytes
	// the Sync allocated and the objects the solo replica's apply allocated.
	measure := func() (syncBytes, applyMallocs uint64) {
		commitBlobs(t, db, 8)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := grp.Sync()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc, feedSolo()
	}
	grow := func(toBytes int) {
		for db.WAL.Device().Len() < toBytes {
			commitBlobs(t, db, 256)
			if err := grp.Sync(); err != nil {
				t.Fatal(err)
			}
			feedSolo()
		}
	}

	grow(1 << 20)
	measure() // the first suffix of this size grows the buffers it will reuse
	smallBytes, smallMallocs := measure()
	grow(16 << 20)
	measure()
	largeBytes, largeMallocs := measure()

	if st := grp.Status()[0]; st.ReceivedBytes != db.WAL.Device().Len() || st.PendingCommits != 0 ||
		st.AppliedCommits != db.Txns.LastCommitTS() {
		t.Fatalf("replica did not keep up: %+v", st)
	}
	if st := solo.Status(); st.AppliedCommits != db.Txns.LastCommitTS() {
		t.Fatalf("solo replica did not keep up: %+v", st)
	}
	// A suffix is ~8 KB and a Sync moves it a handful of times; the log
	// before it is 16 times longer the second time.
	if largeBytes > smallBytes+smallBytes/4 {
		t.Fatalf("one Sync allocated %d B after a 1 MB log and %d B after a 16 MB log", smallBytes, largeBytes)
	}
	if largeMallocs > smallMallocs+smallMallocs/4 {
		t.Fatalf("one eager apply allocated %d objects on a 1 MB segment and %d on a 16 MB segment",
			smallMallocs, largeMallocs)
	}
	t.Logf("Sync: %d B then %d B; apply: %d objects then %d", smallBytes, largeBytes, smallMallocs, largeMallocs)
}

// A checkpoint image larger than one frame ships as consecutive snapshot
// chunks and re-seeds the replica to the primary's state, and a second
// checkpoint in the same run does so again.
func TestGroupShipsSnapshotInChunks(t *testing.T) {
	defer func(n int) { snapshotChunk = n }(snapshotChunk)
	snapshotChunk = 64

	db, err := kvFactory()
	if err != nil {
		t.Fatal(err)
	}
	grp, err := NewGroup(db, kvFactory, server.NewPipe(), GroupConfig{Replicas: 2, ApplyEvery: []int{1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	defer grp.Close()
	for round := 1; round <= 2; round++ {
		flushKV(t, db, 9)
		if err := grp.Sync(); err != nil {
			t.Fatal(err)
		}
		ck, err := db.Checkpoint(nil)
		if err != nil {
			t.Fatal(err)
		}
		if ck.ImageBytes <= 3*snapshotChunk {
			t.Fatalf("checkpoint image of %d bytes does not span several %d-byte chunks", ck.ImageBytes, snapshotChunk)
		}
		flushKV(t, db, 4)
		if err := grp.Sync(); err != nil {
			t.Fatalf("sync after checkpoint %d: %v", round, err)
		}
		for _, st := range grp.Status() {
			if st.Reseeds != round || st.Epoch != db.WAL.Epoch() || st.ReceivedCommits != db.Txns.LastCommitTS() {
				t.Fatalf("after checkpoint %d: %+v (primary at epoch %d, %d commits)",
					round, st, db.WAL.Epoch(), db.Txns.LastCommitTS())
			}
		}
	}
	if err := grp.Close(); err != nil {
		t.Fatal(err)
	}
	for _, rep := range grp.Replicas() {
		if _, err := rep.Promote(); err != nil {
			t.Fatal(err)
		}
		if got, want := stateDigest(t, rep.DB()), stateDigest(t, db); got != want {
			t.Fatalf("replica %d state digest %#x, primary %#x", rep.ID, got, want)
		}
	}
}

// A replica refuses a snapshot chunk that does not continue the transfer it
// holds — out of order, for another epoch, past the image's end — and an
// opening chunk whose image is not the frame's epoch; each refusal leaves it
// as it was, so the transfer then completes.
func TestReplicaRefusesStraySnapshotChunks(t *testing.T) {
	db, err := kvFactory()
	if err != nil {
		t.Fatal(err)
	}
	flushKV(t, db, 12)
	if _, err := db.Checkpoint(nil); err != nil {
		t.Fatal(err)
	}
	img, epoch := db.CheckpointImage(), db.WAL.Epoch()
	rep, err := NewReplica(0, kvFactory, ReplicaConfig{})
	if err != nil {
		t.Fatal(err)
	}
	chunk := func(epoch uint64, from, to int) ShipFrame {
		return ShipFrame{Type: ShipSnapshot, Epoch: epoch, Offset: uint64(from), Payload: img[from:to]}
	}
	refused := func(f ShipFrame, want string) {
		t.Helper()
		before := rep.Status()
		held := len(rep.snap)
		if _, err := rep.HandleFrame(f); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("chunk at %d for epoch %d: err = %v, want one containing %q", f.Offset, f.Epoch, err, want)
		}
		if after := rep.Status(); after != before || len(rep.snap) != held {
			t.Fatalf("refusal changed the replica:\nbefore %+v (%d snapshot bytes)\nafter  %+v (%d)",
				before, held, after, len(rep.snap))
		}
	}
	accepted := func(f ShipFrame) {
		t.Helper()
		ack, err := rep.HandleFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		if want := f.Offset + uint64(len(f.Payload)); ack.Type != ShipAck || ack.Epoch != f.Epoch || ack.Offset != want {
			t.Fatalf("ack %+v, want epoch %d offset %d", ack, f.Epoch, want)
		}
	}

	refused(chunk(epoch, 50, 90), "holds 0 bytes")                  // no transfer open
	refused(chunk(epoch+1, 0, 50), "belongs to the image of epoch") // image read across a checkpoint
	refused(chunk(epoch, 0, wal.CheckpointHeaderLen-1), "whole checkpoint header")
	accepted(chunk(epoch, 0, 50))
	refused(chunk(epoch, 90, 130), "got a chunk at 90")  // skipped ahead
	refused(chunk(epoch, 0+10, 50), "got a chunk at 10") // rewound
	refused(chunk(epoch+1, 50, 90), "for epoch")         // another epoch's transfer
	over := chunk(epoch, 50, len(img))
	over.Payload = append(append([]byte(nil), over.Payload...), 0)
	refused(over, "overruns")
	if rep.Status().Reseeds != 0 {
		t.Fatal("replica re-seeded before the image was whole")
	}
	accepted(chunk(epoch, 50, 90))
	accepted(chunk(epoch, 90, len(img)))
	if st := rep.Status(); st.Reseeds != 1 || st.Epoch != epoch || st.AppliedCommits != db.Txns.LastCommitTS() {
		t.Fatalf("after the last chunk: %+v", st)
	}
	if got, want := stateDigest(t, rep.DB()), stateDigest(t, db); got != want {
		t.Fatalf("re-seeded state digest %#x, primary %#x", got, want)
	}
}

// A checkpoint between a flush and the Sync that would have shipped it: the
// Sync reads epoch and bytes in one locked read, so it ships the new epoch's
// snapshot and segment, never the old epoch's bytes under the new epoch's
// name. What the two separate reads could produce — the old segment as an
// append at offset 0 of the new epoch — a replica refuses by the segment
// header's epoch.
func TestSyncAcrossCheckpointBetweenFlushAndSync(t *testing.T) {
	db, err := kvFactory()
	if err != nil {
		t.Fatal(err)
	}
	grp, err := NewGroup(db, kvFactory, server.NewPipe(), GroupConfig{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer grp.Close()
	flushKV(t, db, 5)
	if err := grp.Sync(); err != nil {
		t.Fatal(err)
	}
	flushKV(t, db, 3) // durable, not yet shipped
	oldEpoch, shipped := db.WAL.Epoch(), grp.sentBytes[0]
	oldSegment := db.WAL.Durable()
	if _, err := db.Checkpoint(nil); err != nil {
		t.Fatal(err)
	}

	// The one read: a follower of the old epoch gets the new epoch and its
	// whole (header-only) segment, not the old segment's unsent suffix.
	epoch, unseen := db.WAL.DurableSince(oldEpoch, shipped)
	if epoch != oldEpoch+1 || len(unseen) != wal.SegmentHeaderLen {
		t.Fatalf("DurableSince(%d, %d) = epoch %d, %d bytes; want epoch %d and the %d-byte header",
			oldEpoch, shipped, epoch, len(unseen), oldEpoch+1, wal.SegmentHeaderLen)
	}
	if err := grp.Sync(); err != nil {
		t.Fatal(err)
	}
	st := grp.Status()[0]
	if st.Reseeds != 1 || st.Epoch != epoch || st.AppliedCommits != 8 || st.ReceivedBytes != wal.SegmentHeaderLen {
		t.Fatalf("after the sync: %+v", st)
	}

	// The frame the race used to build.
	stale := ShipFrame{Type: ShipAppend, Epoch: epoch, Offset: 0, Payload: oldSegment}
	fresh, err := NewReplica(1, kvFactory, ReplicaConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.HandleFrame(ShipFrame{Type: ShipSnapshot, Epoch: epoch, Payload: db.CheckpointImage()}); err != nil {
		t.Fatal(err)
	}
	before := fresh.Status()
	if _, err := fresh.HandleFrame(stale); err == nil || !strings.Contains(err.Error(), "carries the segment header of epoch") {
		t.Fatalf("old epoch's segment shipped as the new epoch's: err = %v", err)
	}
	if after := fresh.Status(); after != before {
		t.Fatalf("refusal changed the replica:\nbefore %+v\nafter  %+v", before, after)
	}
	if got, want := stateDigest(t, fresh.DB()), stateDigest(t, db); got != want {
		t.Fatalf("replica state digest %#x, primary %#x", got, want)
	}
}
