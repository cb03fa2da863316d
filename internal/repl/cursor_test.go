package repl

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"mb2/internal/engine"
	"mb2/internal/hw"
	"mb2/internal/storage"
	"mb2/internal/wal"
)

// goldenLog builds one seeded segment image for the kv schema straight
// through a wal.Manager: up to three transactions open at once, their
// records interleaved, each ending in a commit record or (one in five) in
// nothing — an abort leaves its writes in the log. Writes are inserts of new
// rows, updates and deletes of earlier ones. The image ends in a torn frame.
func goldenLog(t testing.TB, seed int64) []byte {
	t.Helper()
	db, err := kvFactory()
	if err != nil {
		t.Fatal(err)
	}
	tid := int32(db.Table("kv").Meta.ID)
	rng := rand.New(rand.NewSource(seed))
	m := wal.NewManager(512)
	enqueue := func(r wal.Record) {
		if err := m.Enqueue(nil, r); err != nil {
			t.Fatal(err)
		}
	}
	var open []uint64
	nextTxn, nextRow := uint64(1), int64(0)
	for step := 0; step < 400; step++ {
		switch c := rng.Intn(10); {
		case len(open) == 0 || (c < 2 && len(open) < 3):
			open = append(open, nextTxn)
			nextTxn++
		case c < 7:
			r := wal.Record{Type: wal.RecordInsert, TxnID: open[rng.Intn(len(open))], TableID: tid}
			if k := rng.Intn(4); k > 1 && nextRow > 0 {
				r.Type, r.Row = wal.RecordUpdate, rng.Int63n(nextRow)
				if k == 3 {
					r.Type = wal.RecordDelete
				}
			} else {
				r.Row = nextRow
				nextRow++
			}
			if r.Type != wal.RecordDelete {
				r.Payload = storage.Tuple{storage.NewInt(r.Row), storage.NewInt(rng.Int63n(1000))}
			}
			enqueue(r)
		default:
			i := rng.Intn(len(open))
			if rng.Intn(5) > 0 {
				enqueue(wal.Record{Type: wal.RecordCommit, TxnID: open[i]})
			}
			open = append(open[:i], open[i+1:]...)
		}
		if step%37 == 0 {
			m.Serialize(nil)
			if _, err := m.Flush(nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	enqueue(wal.Record{Type: wal.RecordCommit, TxnID: nextTxn}) // the frame the tear lands in
	m.Serialize(nil)
	if _, err := m.Flush(nil); err != nil {
		t.Fatal(err)
	}
	img := m.Durable()
	return img[:len(img)-9]
}

// wholeSegmentReplica is the from-scratch reference the cursor is held to:
// the follower as it was before the cursor, which keeps every received byte
// and on each apply re-parses the whole segment (wal.ParseSegment +
// wal.DeserializePrefix) and replays through wal.ReplayRange.
type wholeSegmentReplica struct {
	id             int
	every          int
	db             *engine.DB
	th             *hw.Thread
	recv           []byte
	appliedCommits uint64
	appliedRecords int
	appliedBytes   int
	appends        int
}

func newWholeSegmentReplica(t testing.TB, id, every int) *wholeSegmentReplica {
	t.Helper()
	db, err := kvFactory()
	if err != nil {
		t.Fatal(err)
	}
	return &wholeSegmentReplica{id: id, every: every, db: db, th: hw.NewThread(db.Machine.CPU)}
}

func (r *wholeSegmentReplica) append(p []byte) error {
	r.th.Alloc(float64(len(p)))
	r.th.SeqWrite(float64(len(p))/64, 64)
	r.recv = append(r.recv, p...)
	r.appends++
	if r.every <= 1 || r.appends%r.every == 0 {
		return r.applyPending()
	}
	return nil
}

func (r *wholeSegmentReplica) applyPending() error {
	_, body, torn, err := wal.ParseSegment(r.recv)
	if err != nil || torn {
		return err
	}
	records, consumed, _ := wal.DeserializePrefix(body)
	validBytes := len(r.recv) - len(body) + consumed
	if newBytes := validBytes - r.appliedBytes; newBytes > 0 {
		r.th.SeqRead(float64(newBytes)/64, 64)
	}
	kv := r.db.Table("kv")
	tables := map[int32]*storage.Table{int32(kv.Meta.ID): kv}
	applied, newBase, err := wal.ReplayRange(r.th, records, tables, r.appliedCommits, 0)
	if err != nil {
		return err
	}
	r.appliedRecords += applied
	r.appliedBytes = validBytes
	r.appliedCommits = newBase
	r.db.Txns.AdvanceTo(newBase)
	return nil
}

func (r *wholeSegmentReplica) status() Status {
	st := Status{
		ID:             r.id,
		ReceivedBytes:  len(r.recv),
		AppliedCommits: r.appliedCommits,
		Metrics:        r.th.Since(hw.Counters{}),
	}
	if _, body, torn, err := wal.ParseSegment(r.recv); err == nil && !torn {
		records, consumed, _ := wal.DeserializePrefix(body)
		st.ReceivedCommits = wal.NumCommitted(records)
		st.PendingRecords = len(records) - r.appliedRecords
		st.PendingBytes = len(r.recv) - len(body) + consumed - r.appliedBytes
	}
	st.PendingCommits = st.ReceivedCommits - st.AppliedCommits
	kv := r.db.Table("kv")
	st.Rows = int(kv.NumRows())
	for _, im := range r.db.Catalog.TableIndexes(kv.Meta.ID) {
		st.Indexes++
		st.IndexKeyBytes += st.Rows * 8 * len(im.KeyCols)
	}
	return st
}

func (r *wholeSegmentReplica) promote() (PromoteStats, error) {
	start := r.th.Counters()
	before := r.appliedRecords
	if err := r.applyPending(); err != nil {
		return PromoteStats{}, err
	}
	st := PromoteStats{ID: r.id, AppliedRecords: r.appliedRecords - before, Commits: r.appliedCommits}
	st.IndexesRebuilt, st.IndexRows = r.db.RebuildIndexes(r.th)
	ck, err := r.db.Checkpoint(r.th)
	if err != nil {
		return PromoteStats{}, err
	}
	st.Checkpoint = ck
	st.Elapsed = r.th.Since(start)
	return st, nil
}

// feedChunks ships log to a cursor Replica and to the whole-segment
// reference, cut into the given chunk sizes (what the sizes leave over goes
// last), and requires them to agree bit for bit after every chunk — Status
// with its hw.Metrics — and after promotion: PromoteStats and table state.
// It returns the promoted state digest.
func feedChunks(t testing.TB, log []byte, sizes []int, every int) uint64 {
	t.Helper()
	rep, err := NewReplica(7, kvFactory, ReplicaConfig{ApplyEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	ref := newWholeSegmentReplica(t, 7, every)
	off := 0
	for i := 0; off < len(log); i++ {
		n := len(log) - off
		if i < len(sizes) {
			n = min(n, max(sizes[i], 1))
		}
		chunk := log[off : off+n]
		ack, err := rep.HandleFrame(ShipFrame{Type: ShipAppend, Offset: uint64(off), Payload: chunk})
		if err != nil {
			t.Fatalf("chunk %d at %d: %v", i, off, err)
		}
		if err := ref.append(chunk); err != nil {
			t.Fatalf("reference, chunk %d at %d: %v", i, off, err)
		}
		off += n
		if ack.Offset != uint64(off) {
			t.Fatalf("chunk %d acked %d received bytes, want %d", i, ack.Offset, off)
		}
		if got, want := rep.Status(), ref.status(); got != want {
			t.Fatalf("after chunk %d (%d bytes at %d), apply every %d:\ncursor    %+v\nreference %+v",
				i, n, off-n, every, got, want)
		}
	}
	ps, err := rep.Promote()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.promote()
	if err != nil {
		t.Fatal(err)
	}
	if ps != want {
		t.Fatalf("promotion, apply every %d:\ncursor    %+v\nreference %+v", every, ps, want)
	}
	if got, want := rep.Status(), ref.status(); got != want {
		t.Fatalf("after promotion, apply every %d:\ncursor    %+v\nreference %+v", every, got, want)
	}
	digest := stateDigest(t, rep.DB())
	if want := stateDigest(t, ref.db); digest != want {
		t.Fatalf("promoted state digest %#x, reference %#x", digest, want)
	}
	return digest
}

// applyCadences are the three followers the equivalence is checked for:
// eager, every third frame, and lazy until promotion.
var applyCadences = []int{1, 3, 1 << 30}

// However the golden log is cut — inside the segment header, inside a frame,
// between a transaction's writes and its commit record, before the torn
// tail — an eager, an every-third-frame and a fully lazy cursor replica each
// match the whole-segment reference at every step, and all end in the same
// state.
func TestCursorMatchesWholeSegmentReplay(t *testing.T) {
	log := goldenLog(t, 1)
	_, body, _, err := wal.ParseSegment(log)
	if err != nil {
		t.Fatal(err)
	}
	// One chunk per frame puts a cut between every transaction's writes and
	// its commit record; seven-byte chunks cut the header and every frame.
	perFrame := []int{wal.SegmentHeaderLen}
	for rest := body; len(rest) >= 8; {
		n := 8 + int(binary.LittleEndian.Uint32(rest)) // length prefix + CRC + body
		if n > len(rest) {
			break // the torn tail
		}
		perFrame = append(perFrame, n)
		rest = rest[n:]
	}
	if len(perFrame) < 100 {
		t.Fatalf("golden log has only %d frames", len(perFrame)-1)
	}
	chunkings := [][]int{nil, perFrame, repeat(7, len(log)/7)}
	rng := rand.New(rand.NewSource(2))
	for _, most := range []int{5, 40, 300, 300} {
		var sizes []int
		for total := 0; total < len(log); {
			n := 1 + rng.Intn(most)
			sizes = append(sizes, n)
			total += n
		}
		chunkings = append(chunkings, sizes)
	}
	var digest uint64
	for i, sizes := range chunkings {
		for _, every := range applyCadences {
			d := feedChunks(t, log, sizes, every)
			if digest == 0 {
				digest = d
			}
			if d != digest {
				t.Fatalf("chunking %d, apply every %d: promoted digest %#x, others %#x", i, every, d, digest)
			}
		}
	}
}

func repeat(n, times int) []int {
	out := make([]int, times)
	for i := range out {
		out[i] = n
	}
	return out
}
