package repl

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"mb2/internal/engine"
	"mb2/internal/hw"
	"mb2/internal/storage"
	"mb2/internal/wal"
)

// DBFactory builds a fresh, empty engine with the replicated schema already
// applied (catalog recovery is out of scope, as in engine.RecoverImages).
// A replica calls it once at creation and again on every snapshot re-seed.
type DBFactory func() (*engine.DB, error)

// ReplicaConfig tunes one replica's apply behavior.
type ReplicaConfig struct {
	// ApplyEvery applies the received backlog only on every Nth append
	// frame (<=1 applies eagerly on each). A lazy replica acknowledges
	// receipt immediately — the bytes are durable on its side — but defers
	// the replay work, so it accumulates exactly the catch-up backlog a
	// promotion must pay for. This is the staleness knob the failover
	// drills sweep.
	ApplyEvery int
}

// Status is a replica's staleness snapshot: every quantity the planner needs
// to price a promotion of this node.
type Status struct {
	ID    int
	Epoch uint64
	// ReceivedBytes is the segment-image byte count received and acked.
	ReceivedBytes int
	// ReceivedCommits is the absolute commit count durable in the received
	// image's valid prefix (checkpoint snapshot + shipped tail).
	ReceivedCommits uint64
	// AppliedCommits is the absolute commit count already applied.
	AppliedCommits uint64
	// PendingCommits/PendingRecords/PendingBytes measure the replay
	// backlog a promotion must work through.
	PendingCommits uint64
	PendingRecords int
	PendingBytes   int
	// Rows, Indexes, and IndexKeyBytes size the post-replay index rebuild.
	Rows          int
	Indexes       int
	IndexKeyBytes int
	// Reseeds counts snapshot re-seeds (primary checkpoints absorbed).
	Reseeds int
	// Metrics is the cumulative simulated cost charged to the replica's
	// thread: its wall-clock lag source.
	Metrics hw.Metrics
}

// PromoteStats describes one promotion: the catch-up replay, the index
// rebuild, and the establishing checkpoint, with the simulated cost of
// exactly that work in Elapsed.
type PromoteStats struct {
	ID             int
	AppliedRecords int
	Commits        uint64
	IndexesRebuilt int
	IndexRows      int
	Checkpoint     engine.CheckpointStats
	Elapsed        hw.Metrics
}

// Replica is one log-shipping follower: it buffers the primary's durable
// segment bytes as they arrive, applies committed transactions in commit
// order (eagerly or lazily per ReplicaConfig), and can be promoted to a
// standalone primary. All methods are safe for concurrent use; the serve
// loop and the control plane (Status, Promote) synchronize on one mutex.
//
// The replica follows the segment with a parse cursor, so every step costs
// in proportion to the bytes that are new: the segment's first cursor bytes
// are decoded — their commits applied, the writes of their still-open
// transactions held by redo — and released, and tail holds the rest, up to
// the last byte received, in chunks that never move (see receive). Offsets
// on the wire keep counting from the segment start.
type Replica struct {
	ID      int
	factory DBFactory
	cfg     ReplicaConfig

	mu             sync.Mutex
	db             *engine.DB
	th             *hw.Thread
	epoch          uint64
	cursor         int      // segment bytes decoded and released
	received       int      // segment bytes received
	tail           [][]byte // segment bytes [cursor, received), in chunks
	redo           wal.Redo
	unapplied      int    // records before cursor not applied as a write: commit records, writes redo holds
	appliedCommits uint64 // absolute commit count applied
	appends        int    // append frames received this epoch
	snap           []byte // the chunks so far of a checkpoint image being received
	reseeds        int
	promoted       bool
}

// NewReplica builds a follower over a fresh engine from factory.
func NewReplica(id int, factory DBFactory, cfg ReplicaConfig) (*Replica, error) {
	db, err := factory()
	if err != nil {
		return nil, fmt.Errorf("repl: replica %d factory: %w", id, err)
	}
	return &Replica{
		ID:      id,
		factory: factory,
		cfg:     cfg,
		db:      db,
		th:      hw.NewThread(db.Machine.CPU),
	}, nil
}

// DB returns the replica's engine (read-only for callers while shipping is
// active; fully owned by the caller after Promote).
func (r *Replica) DB() *engine.DB {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.db
}

// tables maps table IDs to the replica engine's storage, the form the WAL
// replayers consume. Callers hold r.mu.
func (r *Replica) tables() map[int32]*storage.Table {
	out := make(map[int32]*storage.Table)
	for _, name := range r.db.Catalog.Tables() {
		if t := r.db.Table(name); t != nil {
			out[int32(t.Meta.ID)] = t
		}
	}
	return out
}

// HandleFrame processes one shipped frame and returns the ack the primary
// is waiting for: in Offset the byte count the replica now holds of what the
// frame extended, in the payload the applied commit count. An error refuses
// the frame — one refused for what it is (its epoch, its offset, the header
// it carries) leaves the replica as it was — and the serve loop relays it to
// the primary as MsgError.
func (r *Replica) HandleFrame(f ShipFrame) (ShipFrame, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.promoted {
		return ShipFrame{}, fmt.Errorf("repl: replica %d already promoted", r.ID)
	}
	var err error
	switch f.Type {
	case ShipSnapshot:
		err = r.snapshot(f)
	case ShipAppend:
		err = r.append(f)
	default:
		err = fmt.Errorf("repl: replica %d: unexpected frame type %d", r.ID, f.Type)
	}
	if err != nil {
		return ShipFrame{}, err
	}
	var applied [8]byte
	binary.LittleEndian.PutUint64(applied[:], r.appliedCommits)
	return ShipFrame{
		Type:    ShipAck,
		Epoch:   f.Epoch,
		Offset:  f.Offset + uint64(len(f.Payload)),
		Payload: applied[:],
	}, nil
}

// snapshot takes one chunk of a checkpoint image. The chunk at offset 0
// opens a transfer (dropping an unfinished one) and carries the image's
// header; every later chunk must continue the transfer exactly where it
// stands. The header names the image's epoch — it must be the frame's, or
// the image was read across a checkpoint — and its length: the replica
// re-seeds when the last byte lands.
func (r *Replica) snapshot(f ShipFrame) error {
	img := f.Payload
	if f.Offset != 0 {
		if f.Offset != uint64(len(r.snap)) {
			return fmt.Errorf("repl: replica %d holds %d bytes of a snapshot but got a chunk at %d",
				r.ID, len(r.snap), f.Offset)
		}
		img = append(r.snap, f.Payload...)
	}
	h, ok, err := wal.ParseCheckpointHeader(img)
	if err != nil {
		return fmt.Errorf("repl: replica %d snapshot: %w", r.ID, err)
	}
	if !ok {
		return fmt.Errorf("repl: replica %d: snapshot does not start with a whole checkpoint header", r.ID)
	}
	if h.Epoch != f.Epoch {
		return fmt.Errorf("repl: replica %d: snapshot frame for epoch %d belongs to the image of epoch %d",
			r.ID, f.Epoch, h.Epoch)
	}
	if len(img) > h.ImageLen {
		return fmt.Errorf("repl: replica %d: snapshot chunk of %d bytes at %d overruns the %d-byte image",
			r.ID, len(f.Payload), f.Offset, h.ImageLen)
	}
	if len(img) < h.ImageLen {
		if f.Offset == 0 {
			img = append(r.snap[:0], img...) // the frame's buffer is not ours to keep
		}
		r.snap = img
		return nil
	}
	r.snap = nil
	return r.reseed(img, f.Epoch)
}

// reseed replaces the replica's state from a shipped checkpoint image: the
// crash-recovery path on a fresh engine, run because the primary truncated
// the log history this replica was following.
func (r *Replica) reseed(img []byte, epoch uint64) error {
	db, err := r.factory()
	if err != nil {
		return fmt.Errorf("repl: replica %d reseed factory: %w", r.ID, err)
	}
	if _, err := db.RecoverImages(r.th, img, nil); err != nil {
		return fmt.Errorf("repl: replica %d reseed: %w", r.ID, err)
	}
	r.db = db
	r.epoch = epoch
	r.appliedCommits = db.Txns.LastCommitTS()
	clear(r.tail)
	r.cursor, r.received, r.tail, r.redo = 0, 0, r.tail[:0], wal.Redo{}
	r.unapplied, r.appends = 0, 0
	r.reseeds++
	return nil
}

// tailChunk is the capacity of every chunk of a replica's tail. Chunks are
// cut at the segment offsets that are multiples of it, so the chunks that
// hold a range of the segment are a function of the range, never of how the
// frames that brought it were sized, and a byte once received is never
// moved.
var tailChunk = 64 << 10

// receive appends p to the tail: into the last chunk while it has room, then
// into new ones.
func (r *Replica) receive(p []byte) {
	r.received += len(p)
	for len(p) > 0 {
		last := len(r.tail) - 1
		if last < 0 || len(r.tail[last]) == cap(r.tail[last]) {
			r.tail = append(r.tail, make([]byte, 0, tailChunk))
			last++
		}
		c := r.tail[last]
		k := min(len(p), cap(c)-len(c))
		r.tail[last] = append(c, p[:k]...)
		p = p[k:]
	}
}

// release moves the cursor over the tail's first n bytes and drops the
// chunks it passed. A chunk keeps only its bytes past the cursor, so it is
// full — and passed once empty — exactly when its capacity is used up.
func (r *Replica) release(n int) {
	r.cursor += n
	passed := 0
	for ; n > 0; passed++ {
		c := r.tail[passed]
		k := min(n, len(c))
		n -= k
		if r.tail[passed] = c[k:]; cap(c) > k {
			break
		}
	}
	r.tail = slices.Delete(r.tail, 0, passed)
}

// append extends the received segment image and applies the backlog when
// the lazy-apply cadence says so. Receiving is charged as a buffered
// sequential write of the shipped bytes.
func (r *Replica) append(f ShipFrame) error {
	if f.Epoch != r.epoch {
		return fmt.Errorf("repl: replica %d at epoch %d got append for epoch %d without a snapshot",
			r.ID, r.epoch, f.Epoch)
	}
	if f.Offset != uint64(r.received) {
		return fmt.Errorf("repl: replica %d received %d bytes but append starts at %d",
			r.ID, r.received, f.Offset)
	}
	// The frame that completes the segment header is where a segment of
	// another epoch is caught: its records belong on another snapshot. The
	// cursor is still 0 then, so tail starts at the segment's first byte.
	if off := int(f.Offset); off < wal.SegmentHeaderLen && off+len(f.Payload) >= wal.SegmentHeaderLen {
		epoch, torn, err := wal.ParseSegmentParts(append(slices.Clip(r.tail), f.Payload)...)
		if err != nil {
			return fmt.Errorf("repl: replica %d segment parse: %w", r.ID, err)
		}
		if !torn && epoch != f.Epoch {
			return fmt.Errorf("repl: replica %d: append for epoch %d carries the segment header of epoch %d",
				r.ID, f.Epoch, epoch)
		}
	}
	r.th.Alloc(float64(len(f.Payload)))
	r.th.SeqWrite(float64(len(f.Payload))/64, 64)
	r.receive(f.Payload)
	r.appends++
	if every := r.cfg.ApplyEvery; every <= 1 || r.appends%every == 0 {
		_, err := r.applyPending()
		return err
	}
	return nil
}

// decodeTail parses the valid prefix of the bytes past the cursor — the
// segment header first while the cursor is still at the segment start, then
// whole record frames — with the tolerant parsers recovery uses, reading the
// frames where they lie in the tail's chunks. n is how many bytes of tail
// that prefix spans; a header still torn yields nothing.
func (r *Replica) decodeTail() (records []wal.Record, n int, err error) {
	if r.cursor == 0 {
		if _, torn, err := wal.ParseSegmentParts(r.tail...); err != nil || torn || r.received == 0 {
			return nil, 0, err
		}
		n = wal.SegmentHeaderLen
	}
	records, consumed := wal.DeserializeParts(nil, r.tail, n)
	return records, n + consumed, nil
}

// applyPending decodes the bytes past the cursor, replays the transactions
// whose commit record is among them onto the replica's tables, and moves the
// cursor over what it decoded, charging the parse and every applied write to
// the replica's thread. It returns the write records applied. An error means
// the log and the replica's schema do not meet; it is not retried past.
// Callers hold r.mu.
func (r *Replica) applyPending() (applied int, err error) {
	records, n, err := r.decodeTail()
	if err != nil {
		return 0, fmt.Errorf("repl: replica %d segment parse: %w", r.ID, err)
	}
	if n == 0 {
		return 0, nil
	}
	r.th.SeqRead(float64(n)/64, 64)
	applied, commits, err := r.redo.Apply(r.th, records, r.tables(), r.appliedCommits)
	if err != nil {
		return applied, fmt.Errorf("repl: replica %d apply: %w", r.ID, err)
	}
	r.unapplied += len(records) - applied
	r.release(n)
	r.appliedCommits += commits
	r.db.Txns.AdvanceTo(r.appliedCommits)
	return applied, nil
}

// Status reports the replica's staleness. It parses the bytes past the cursor
// with the same tolerant parsers the apply path uses, so the pending counts
// are exact, but charges nothing: staleness inspection is control-plane work.
func (r *Replica) Status() Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Status{
		ID:              r.ID,
		Epoch:           r.epoch,
		ReceivedBytes:   r.received,
		ReceivedCommits: r.appliedCommits,
		AppliedCommits:  r.appliedCommits,
		Reseeds:         r.reseeds,
		Metrics:         r.th.Since(hw.Counters{}),
	}
	if records, n, err := r.decodeTail(); err == nil {
		st.ReceivedCommits += wal.NumCommitted(records)
		st.PendingRecords = r.unapplied + len(records)
		st.PendingBytes = n
	}
	st.PendingCommits = st.ReceivedCommits - st.AppliedCommits
	for _, name := range r.db.Catalog.Tables() {
		t := r.db.Table(name)
		if t == nil {
			continue
		}
		rows := int(t.NumRows())
		st.Rows += rows
		for _, im := range r.db.Catalog.TableIndexes(t.Meta.ID) {
			st.Indexes++
			st.IndexKeyBytes += rows * 8 * len(im.KeyCols)
		}
	}
	return st
}

// Promote turns the replica into a standalone primary: it applies the whole
// received backlog, rebuilds every secondary index, and writes an
// establishing checkpoint, charging all three phases — the REPLAY,
// INDEX_REBUILD, and CHECKPOINT operating units — to the replica's thread.
// Ship traffic must have stopped (close the group first); after a
// successful promotion the replica refuses further frames.
func (r *Replica) Promote() (PromoteStats, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.promoted {
		return PromoteStats{}, fmt.Errorf("repl: replica %d already promoted", r.ID)
	}
	start := r.th.Counters()
	applied, err := r.applyPending()
	if err != nil {
		return PromoteStats{}, err
	}
	st := PromoteStats{ID: r.ID, AppliedRecords: applied, Commits: r.appliedCommits}
	st.IndexesRebuilt, st.IndexRows = r.db.RebuildIndexes(r.th)
	ck, err := r.db.Checkpoint(r.th)
	if err != nil {
		return PromoteStats{}, fmt.Errorf("repl: replica %d establishing checkpoint: %w", r.ID, err)
	}
	st.Checkpoint = ck
	st.Elapsed = r.th.Since(start)
	r.promoted = true
	return st, nil
}
