package repl

import (
	"encoding/binary"
	"fmt"
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
type Replica struct {
	ID      int
	factory DBFactory
	cfg     ReplicaConfig

	mu             sync.Mutex
	db             *engine.DB
	th             *hw.Thread
	epoch          uint64
	segBase        uint64 // commit count below the current segment (its checkpoint's SnapshotTS)
	recv           []byte // received bytes of the current segment image
	appliedCommits uint64 // absolute commit count applied
	appliedRecords int    // write records applied from the current segment
	appliedBytes   int    // valid-prefix bytes covered by the last apply
	appends        int    // append frames received this epoch
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
// is waiting for: received byte count in Offset, applied commit count in
// the payload. An error refuses the frame; the serve loop relays it to the
// primary as MsgError.
func (r *Replica) HandleFrame(f ShipFrame) (ShipFrame, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.promoted {
		return ShipFrame{}, fmt.Errorf("repl: replica %d already promoted", r.ID)
	}
	switch f.Type {
	case ShipSnapshot:
		if err := r.reseed(f); err != nil {
			return ShipFrame{}, err
		}
	case ShipAppend:
		if err := r.append(f); err != nil {
			return ShipFrame{}, err
		}
	default:
		return ShipFrame{}, fmt.Errorf("repl: replica %d: unexpected frame type %d", r.ID, f.Type)
	}
	var applied [8]byte
	binary.LittleEndian.PutUint64(applied[:], r.appliedCommits)
	return ShipFrame{
		Type:    ShipAck,
		Epoch:   r.epoch,
		Offset:  uint64(len(r.recv)),
		Payload: applied[:],
	}, nil
}

// reseed replaces the replica's state from a shipped checkpoint image: the
// crash-recovery path on a fresh engine, run because the primary truncated
// the log history this replica was following.
func (r *Replica) reseed(f ShipFrame) error {
	db, err := r.factory()
	if err != nil {
		return fmt.Errorf("repl: replica %d reseed factory: %w", r.ID, err)
	}
	if _, err := db.RecoverImages(r.th, f.Payload, nil); err != nil {
		return fmt.Errorf("repl: replica %d reseed: %w", r.ID, err)
	}
	r.db = db
	r.epoch = f.Epoch
	r.segBase = db.Txns.LastCommitTS()
	r.appliedCommits = r.segBase
	r.recv = r.recv[:0]
	r.appliedRecords, r.appliedBytes, r.appends = 0, 0, 0
	r.reseeds++
	return nil
}

// append extends the received segment image and applies the backlog when
// the lazy-apply cadence says so. Receiving is charged as a buffered
// sequential write of the shipped bytes.
func (r *Replica) append(f ShipFrame) error {
	if f.Epoch != r.epoch {
		return fmt.Errorf("repl: replica %d at epoch %d got append for epoch %d without a snapshot",
			r.ID, r.epoch, f.Epoch)
	}
	if f.Offset != uint64(len(r.recv)) {
		return fmt.Errorf("repl: replica %d received %d bytes but append starts at %d",
			r.ID, len(r.recv), f.Offset)
	}
	r.th.Alloc(float64(len(f.Payload)))
	r.th.SeqWrite(float64(len(f.Payload))/64, 64)
	r.recv = append(r.recv, f.Payload...)
	r.appends++
	if every := r.cfg.ApplyEvery; every <= 1 || r.appends%every == 0 {
		return r.applyPending()
	}
	return nil
}

// applyPending replays the unseen committed suffix of the received image
// onto the replica's tables, charging the parse and every applied write to
// the replica's thread. Callers hold r.mu.
func (r *Replica) applyPending() error {
	_, body, torn, err := wal.ParseSegment(r.recv)
	if err != nil {
		return fmt.Errorf("repl: replica %d segment parse: %w", r.ID, err)
	}
	if torn {
		// The segment header is not complete yet: nothing to apply.
		return nil
	}
	records, consumed, _ := wal.DeserializePrefix(body)
	validBytes := len(r.recv) - len(body) + consumed
	if newBytes := validBytes - r.appliedBytes; newBytes > 0 {
		r.th.SeqRead(float64(newBytes)/64, 64)
	}
	applied, newBase, err := wal.ReplayRange(r.th, records, r.tables(), r.appliedCommits, r.segBase)
	if err != nil {
		return fmt.Errorf("repl: replica %d apply: %w", r.ID, err)
	}
	r.appliedRecords += applied
	r.appliedBytes = validBytes
	r.appliedCommits = newBase
	r.db.Txns.AdvanceTo(newBase)
	return nil
}

// Status reports the replica's staleness. It parses the received image with
// the same tolerant parsers the apply path uses, so the pending counts are
// exact, but charges nothing: staleness inspection is control-plane work.
func (r *Replica) Status() Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Status{
		ID:              r.ID,
		Epoch:           r.epoch,
		ReceivedBytes:   len(r.recv),
		ReceivedCommits: r.segBase,
		AppliedCommits:  r.appliedCommits,
		Reseeds:         r.reseeds,
		Metrics:         r.th.Since(hw.Counters{}),
	}
	if _, body, torn, err := wal.ParseSegment(r.recv); err == nil && !torn {
		records, consumed, _ := wal.DeserializePrefix(body)
		st.ReceivedCommits = r.segBase + wal.NumCommitted(records)
		st.PendingRecords = len(records) - r.appliedRecords
		st.PendingBytes = len(r.recv) - len(body) + consumed - r.appliedBytes
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
	before := r.appliedRecords
	if err := r.applyPending(); err != nil {
		return PromoteStats{}, err
	}
	st := PromoteStats{ID: r.ID, AppliedRecords: r.appliedRecords - before, Commits: r.appliedCommits}
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
