package repl

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
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

// The tail's chunks are a function of the bytes it holds, not of the sizes
// of the frames that brought them: the same 3 MB in frames of any size lands
// in the same chunks of tailChunk bytes, none of which ever moves, and moving
// the cursor drops exactly the chunks it passed, so what a replica retains is
// the chunks that hold [cursor, received).
func TestTailLayoutIgnoresFrameSizes(t *testing.T) {
	const total = 3<<20 + 4321
	payload := make([]byte, total)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	chunks := func(from, to int) int { return (to+tailChunk-1)/tailChunk - from/tailChunk }
	for _, frame := range []int{97, 4096, 87_001, 150_000, total} {
		var r Replica
		var first *byte
		for off := 0; off < total; off += frame {
			r.receive(payload[off:min(off+frame, total)])
			if first == nil {
				first = &r.tail[0][0]
			}
		}
		if first != &r.tail[0][0] {
			t.Fatalf("frames of %d: the first chunk moved", frame)
		}
		for i, c := range r.tail {
			if cap(c) != tailChunk {
				t.Fatalf("frames of %d: chunk %d has capacity %d, want %d", frame, i, cap(c), tailChunk)
			}
		}
		for _, cursor := range []int{0, 1, tailChunk - 1, tailChunk, 5*tailChunk + 3, total - 10, total} {
			r.release(cursor - r.cursor)
			if got, want := len(r.tail), chunks(cursor, total); got != want || r.received != total {
				t.Fatalf("frames of %d, cursor %d: %d chunks held, want %d", frame, cursor, got, want)
			}
			if !bytes.Equal(bytes.Join(r.tail, nil), payload[cursor:]) {
				t.Fatalf("frames of %d, cursor %d: the tail's bytes differ", frame, cursor)
			}
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
		_, views := db.WAL.DurableSince(nil, 0, soloBytes)
		unsent := bytes.Join(views, nil)
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
	defer func(n int) { shipChunk = n }(shipChunk)
	shipChunk = 64

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
		if ck.ImageBytes <= 3*shipChunk {
			t.Fatalf("checkpoint image of %d bytes does not span several %d-byte chunks", ck.ImageBytes, shipChunk)
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
	epoch, views := db.WAL.DurableSince(nil, oldEpoch, shipped)
	unseen := bytes.Join(views, nil)
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

// ackPeer answers every ship frame on c with the ack a replica would send,
// reading each frame into buffers it allocated up front and acking from
// another, so a Sync against it allocates only on the primary's side.
func ackPeer(c net.Conn, maxFrame int) {
	defer c.Close()
	hdr := make([]byte, server.HeaderSize)
	payload := make([]byte, maxFrame)
	ack := make([]byte, 0, server.HeaderSize+shipPrefixSize+8)
	commits := make([]byte, 8)
	for {
		if _, err := io.ReadFull(c, hdr); err != nil {
			return
		}
		n := int(binary.LittleEndian.Uint32(hdr[4:8]))
		if _, err := io.ReadFull(c, payload[:n]); err != nil {
			return
		}
		ack = AppendShipFrame(ack[:0], ShipFrame{
			Type:    ShipAck,
			Epoch:   binary.LittleEndian.Uint64(payload[0:8]),
			Offset:  binary.LittleEndian.Uint64(payload[8:16]) + uint64(n-shipPrefixSize),
			Payload: commits,
		})
		if _, err := c.Write(ack); err != nil {
			return
		}
	}
}

// One Sync costs the primary the same few objects and bytes however long the
// suffix it ships: the suffix goes out as views of the log device's chunks,
// with no copy of it and no frame-sized write buffer. Only what Sync's own
// code allocates is counted, from a profile of every allocation: the acking
// peer's goroutine, the collector and a new thread do not pass through
// Sync, and a sudog, goroutine or timer slot the runtime makes when its
// per-P cache runs dry is the scheduler's, not Sync's.
func TestSyncAllocatesConstantOnPrimary(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	db, err := blobFactory()
	if err != nil {
		t.Fatal(err)
	}
	primary, follower := net.Pipe()
	defer primary.Close()
	go ackPeer(follower, 4<<20)
	grp := &Group{
		db:         db,
		cfg:        GroupConfig{Replicas: 1},
		replicas:   make([]*Replica, 1),
		conns:      []server.Conn{primary},
		wire:       []*server.FrameConn{server.NewFrameConn(primary)},
		sentEpoch:  []uint64{0},
		sentBytes:  []int{0},
		ackCommits: []uint64{0},
	}
	sync := func(txns int) (suffix int, mallocs, bytes int64) {
		commitBlobs(t, db, txns)
		before := grp.sentBytes[0]
		objs0, bytes0 := syncAllocations()
		err := grp.Sync()
		objs1, bytes1 := syncAllocations()
		if err != nil {
			t.Fatal(err)
		}
		if grp.sentBytes[0] != db.WAL.Device().Len() {
			t.Fatalf("shipped %d of %d log bytes", grp.sentBytes[0], db.WAL.Device().Len())
		}
		return grp.sentBytes[0] - before, objs1 - objs0, bytes1 - bytes0
	}
	sync(2048) // grow the Sync's reused view lists and frame buffers once
	for _, txns := range []int{1, 64, 2048} {
		suffix, mallocs, bytes := sync(txns)
		if mallocs > 2 || bytes > 512 {
			t.Fatalf("a Sync of a %d-byte suffix allocated %d objects, %d bytes on the primary", suffix, mallocs, bytes)
		}
		t.Logf("%d-byte suffix: %d objects, %d bytes", suffix, mallocs, bytes)
	}
}

// syncAllocations totals the allocation profile's records whose stack
// passes through Group.Sync, leaving out those the runtime's per-P caches
// made (the innermost frame is the runtime's cache refill). Two collections
// first publish every allocation made so far.
func syncAllocations() (objs, bytes int64) {
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, _ = runtime.MemProfile(recs, true)
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		f, more := frames.Next()
		if runtimeCacheRefill[f.Function] {
			continue
		}
		for more && f.Function != syncFunc {
			f, more = frames.Next()
		}
		if f.Function == syncFunc {
			objs, bytes = objs+r.AllocObjects, bytes+r.AllocBytes
		}
	}
	return objs, bytes
}

const syncFunc = "mb2/internal/repl.(*Group).Sync"

// runtimeCacheRefill names the runtime functions that allocate a per-P
// cache's entry when the P finds its own list and the global one empty: a
// blocked goroutine's sudog, a goroutine, a slot in a P's timer heap.
var runtimeCacheRefill = map[string]bool{
	"runtime.acquireSudog":      true,
	"runtime.malg":              true,
	"runtime.(*timers).addHeap": true,
}

// A suffix larger than a frame can carry ships as consecutive append frames
// of at most MaxShipPayload bytes, and the promoted replica ends in the
// primary's state. A Sync used to refuse such a suffix as too large for one
// frame and, never advancing, to refuse it again on every later Sync.
func TestSyncShipsSuffixLargerThanAFrame(t *testing.T) {
	db, err := kvFactory()
	if err != nil {
		t.Fatal(err)
	}
	grp, err := NewGroup(db, kvFactory, server.NewPipe(), GroupConfig{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer grp.Close()
	flushKV(t, db, 300_020)
	if n := db.WAL.Device().Len(); n <= MaxShipPayload {
		t.Fatalf("the durable log is %d bytes, not past one frame's %d", n, MaxShipPayload)
	}
	if err := grp.Sync(); err != nil {
		t.Fatal(err)
	}
	st := grp.Status()[0]
	if st.ReceivedBytes != db.WAL.Device().Len() || st.AppliedCommits != db.Txns.LastCommitTS() {
		t.Fatalf("after the Sync: %+v (primary: %d log bytes, %d commits)", st, db.WAL.Device().Len(), db.Txns.LastCommitTS())
	}
	if frames := grp.replicas[0].appends; frames != 2 {
		t.Fatalf("a %d-byte suffix arrived in %d frames, want 2", st.ReceivedBytes, frames)
	}
	if err := grp.Close(); err != nil {
		t.Fatal(err)
	}
	rep := grp.Replicas()[0]
	if _, err := rep.Promote(); err != nil {
		t.Fatal(err)
	}
	if got, want := stateDigest(t, rep.DB()), stateDigest(t, db); got != want {
		t.Fatalf("promoted state digest %#x, primary %#x", got, want)
	}
}
