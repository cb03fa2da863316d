package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"mb2/internal/catalog"
	"mb2/internal/hw"
	"mb2/internal/storage"
)

// Deserialize parses a frame stream (the inverse of Record.Serialize) and
// fails on any truncated or corrupt frame. Use it where the input is known
// to be complete — checkpoint payloads, in-memory round trips, invariant
// checks. Recovery from a possibly-torn device image uses DeserializePrefix
// instead.
func Deserialize(buf []byte) ([]Record, error) {
	records, consumed, reason := DeserializePrefix(buf)
	if consumed != len(buf) {
		return nil, fmt.Errorf("wal: %s at offset %d", reason, consumed)
	}
	return records, nil
}

// DeserializePrefix parses the longest valid prefix of a frame stream. It
// returns the records of every frame that is fully present and passes its
// CRC, how many bytes that prefix spans, and — when the prefix does not
// cover the whole input — a short reason (torn frame, CRC mismatch, decode
// error) for the stop. It never fails: a torn or corrupt tail simply ends
// the prefix, which is exactly the contract crash recovery needs.
func DeserializePrefix(buf []byte) (records []Record, consumed int, reason string) {
	off := 0
	for off < len(buf) {
		if off+frameOverhead > len(buf) {
			return records, off, "torn frame header"
		}
		n := int(binary.LittleEndian.Uint32(buf[off : off+4]))
		wantCRC := binary.LittleEndian.Uint32(buf[off+4 : off+8])
		bodyStart := off + frameOverhead
		if n < 0 || bodyStart+n > len(buf) {
			return records, off, "torn frame body"
		}
		body := buf[bodyStart : bodyStart+n]
		if crc32.Checksum(body, crcTable) != wantCRC {
			return records, off, "frame CRC mismatch"
		}
		rec, err := decodeRecord(body)
		if err != nil {
			return records, off, err.Error()
		}
		records = append(records, rec)
		off = bodyStart + n
	}
	return records, off, ""
}

// recordHeaderLen is the fixed-size prefix of a record body:
// type(1) + txnID(8) + tableID(4) + row(8) + value count(4).
const recordHeaderLen = 1 + 8 + 4 + 8 + 4

func decodeRecord(b []byte) (Record, error) {
	var r Record
	if len(b) < recordHeaderLen {
		return r, fmt.Errorf("wal: record too short (%d bytes)", len(b))
	}
	r.Type = RecordType(b[0])
	if r.Type < RecordInsert || r.Type > RecordCommit {
		return r, fmt.Errorf("wal: unknown record type %d", r.Type)
	}
	r.TxnID = binary.LittleEndian.Uint64(b[1:9])
	r.TableID = int32(binary.LittleEndian.Uint32(b[9:13]))
	r.Row = int64(binary.LittleEndian.Uint64(b[13:21]))
	nvals := int(binary.LittleEndian.Uint32(b[21:25]))
	if nvals > MaxPayloadValues {
		return r, fmt.Errorf("wal: payload count %d exceeds limit", nvals)
	}
	off := recordHeaderLen
	for i := 0; i < nvals; i++ {
		if off >= len(b) {
			return r, fmt.Errorf("wal: truncated value %d", i)
		}
		kind := catalog.Type(b[off])
		off++
		switch kind {
		case catalog.Varchar:
			if off+4 > len(b) {
				return r, fmt.Errorf("wal: truncated string length")
			}
			sl := int(binary.LittleEndian.Uint32(b[off : off+4]))
			off += 4
			if sl > MaxVarcharBytes || off+sl > len(b) {
				return r, fmt.Errorf("wal: truncated string body")
			}
			r.Payload = append(r.Payload, storage.NewString(string(b[off:off+sl])))
			off += sl
		case catalog.Float64:
			if off+8 > len(b) {
				return r, fmt.Errorf("wal: truncated float")
			}
			r.Payload = append(r.Payload, storage.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(b[off:off+8]))))
			off += 8
		case catalog.Int64:
			if off+8 > len(b) {
				return r, fmt.Errorf("wal: truncated int")
			}
			r.Payload = append(r.Payload, storage.NewInt(int64(binary.LittleEndian.Uint64(b[off:off+8]))))
			off += 8
		default:
			return r, fmt.Errorf("wal: unknown value kind %d", kind)
		}
	}
	if off != len(b) {
		return r, fmt.Errorf("wal: %d trailing bytes after record", len(b)-off)
	}
	return r, nil
}

// Replay applies the redo records of committed transactions to the given
// tables (keyed by table ID): the recovery path. Records of transactions
// without a commit record are discarded, exactly as a crash would lose
// uncommitted work. It returns how many write records were applied.
//
// Transactions are applied in commit order — the position of each
// transaction's commit record in the log — with a distinct timestamp per
// transaction (1, 2, ...), so the rebuilt version chains carry the same
// newest-wins ordering as the live tables. The commit record itself is
// written under the engine's commit-order mutex (engine.DB.CommitLogged),
// which is what guarantees log order matches commit-timestamp order.
func Replay(records []Record, tables map[int32]*storage.Table) (int, error) {
	return ReplayFrom(records, tables, 0)
}

// ReplayFrom is Replay with commit timestamps starting at base+1: the form
// recovery uses to replay a log tail on top of a checkpoint whose snapshot
// already owns timestamps 1..base.
func ReplayFrom(records []Record, tables map[int32]*storage.Table, base uint64) (int, error) {
	return replayOrdered(nil, records, tables, base, 0)
}

// replayOrdered is the shared redo core: it computes the commit order of
// the record stream, skips the first `skip` committed transactions (already
// applied by the caller), and replays the rest at timestamps base+1 upward,
// charging th (which may be nil) as redoWrites does.
func replayOrdered(th *hw.Thread, records []Record, tables map[int32]*storage.Table, base uint64, skip uint64) (int, error) {
	// Pass 1: commit order and per-transaction write lists (in log order).
	seq := make(map[uint64]uint64)
	writes := make(map[uint64][]Record)
	var order []uint64
	for _, r := range records {
		if r.Type == RecordCommit {
			if _, ok := seq[r.TxnID]; !ok {
				order = append(order, r.TxnID)
				seq[r.TxnID] = 0
			}
			continue
		}
		writes[r.TxnID] = append(writes[r.TxnID], r)
	}
	if skip > uint64(len(order)) {
		skip = uint64(len(order))
	}
	order = order[skip:]
	for i, txnID := range order {
		seq[txnID] = base + uint64(i+1)
	}
	// Pass 2: redo each committed transaction at its commit-sequence
	// timestamp.
	applied := 0
	for _, txnID := range order {
		n, err := redoWrites(th, writes[txnID], tables, seq[txnID])
		applied += n
		if err != nil {
			return applied, err
		}
	}
	return applied, nil
}

// redoWrites applies one committed transaction's write records at ts, in log
// order, and returns how many it applied. When th is non-nil every write is
// charged to it with the same allocate-then-place cost Table.Insert charges
// on the primary.
func redoWrites(th *hw.Thread, writes []Record, tables map[int32]*storage.Table, ts uint64) (applied int, err error) {
	for _, r := range writes {
		t, ok := tables[r.TableID]
		if !ok {
			return applied, fmt.Errorf("wal: replay references unknown table %d", r.TableID)
		}
		switch r.Type {
		case RecordInsert, RecordUpdate:
			t.ReplayWrite(storage.RowID(r.Row), r.Payload, ts)
		case RecordDelete:
			t.ReplayWrite(storage.RowID(r.Row), nil, ts)
		default:
			return applied, fmt.Errorf("wal: unknown record type %d", r.Type)
		}
		if th != nil {
			th.Alloc(float64(r.Payload.Bytes()) + 32)
			th.RandWrite(1, t.HeapBytes())
		}
		applied++
	}
	return applied, nil
}

// Redo is the incremental form of ReplayRange, for a follower that receives
// one segment piece by piece: each Apply takes only the records decoded
// since the last one and costs in proportion to them. Between calls it holds
// the write records of transactions whose commit record has not arrived —
// those of a transaction that aborted stay until the follower starts over on
// a new segment with a zero Redo. Fed a whole segment in any number of
// pieces, it replays exactly what ReplayRange replays from the whole: the
// same writes, in the same order, at the same timestamps, with the same
// charges. It relies on what engine.DB.CommitLogged guarantees of a log: a
// transaction's writes precede its one commit record.
type Redo struct {
	open map[uint64][]Record
}

// Apply replays the transactions whose commit record is among records onto
// state that has applied commits 1..base, stamping base+1 upward in commit
// order, and keeps the writes of those still open. It returns the write
// records applied and the transactions committed; applied writes are charged
// to th (which may be nil).
func (d *Redo) Apply(th *hw.Thread, records []Record, tables map[int32]*storage.Table, base uint64) (applied int, commits uint64, err error) {
	if d.open == nil {
		d.open = make(map[uint64][]Record)
	}
	for _, r := range records {
		if r.Type != RecordCommit {
			d.open[r.TxnID] = append(d.open[r.TxnID], r)
		}
	}
	for _, r := range records {
		if r.Type != RecordCommit {
			continue
		}
		commits++
		n, err := redoWrites(th, d.open[r.TxnID], tables, base+commits)
		applied += n
		if err != nil {
			return applied, commits, err
		}
		delete(d.open, r.TxnID)
	}
	return applied, commits, nil
}

// ErrReplayGap is the sentinel a GapError unwraps to: the caller's applied
// state and the log it was asked to replay do not meet. The replication
// layer matches it with errors.Is to decide between "request a snapshot"
// (history truncated away underneath a restarted replica) and "refuse a
// rewound stream" (the state claims more commits than the log tail holds).
var ErrReplayGap = errors.New("wal: replay gap")

// GapError describes exactly how a replay request missed the log: Base is
// the commit count the caller has already applied, SegmentBase the commit
// timestamp the segment starts above (its checkpoint's SnapshotTS), and
// SegmentCommits how many committed transactions the segment contains.
type GapError struct {
	Base           uint64
	SegmentBase    uint64
	SegmentCommits uint64
}

// Error implements error.
func (e *GapError) Error() string {
	if e.Base < e.SegmentBase {
		return fmt.Sprintf("wal: replay gap: applied state at commit %d predates segment base %d (history truncated)",
			e.Base, e.SegmentBase)
	}
	return fmt.Sprintf("wal: replay gap: applied state at commit %d is ahead of log tail %d (segment base %d + %d commits)",
		e.Base, e.SegmentBase+e.SegmentCommits, e.SegmentBase, e.SegmentCommits)
}

// Unwrap makes errors.Is(err, ErrReplayGap) match.
func (e *GapError) Unwrap() error { return ErrReplayGap }

// ReplayRange replays onto state that has already applied commits 1..base
// the tail of a segment whose history starts above segBase (the SnapshotTS
// of the checkpoint that opened it): committed transactions numbered
// segBase+1..segBase+n in the segment, of which the first base-segBase are
// skipped as already applied and the rest stamp base+1 upward. It is the
// whole-segment form — it walks every record however few are new, where a
// follower of a growing segment uses Redo — and it surfaces a typed
// *GapError instead of silently applying zero records when base and the log
// do not meet:
// base < segBase means the primary truncated history the replica never saw
// (it must re-seed from a checkpoint), and base beyond the segment's last
// commit means the stream rewound or the caller's state is from a different
// history. Applied writes are charged to th (which may be nil), so a
// replica's apply work shows up on its own simulated thread. It returns the
// write records applied and the new commit count.
func ReplayRange(th *hw.Thread, records []Record, tables map[int32]*storage.Table, base, segBase uint64) (applied int, newBase uint64, err error) {
	commits := NumCommitted(records)
	if base < segBase || base > segBase+commits {
		return 0, base, &GapError{Base: base, SegmentBase: segBase, SegmentCommits: commits}
	}
	applied, err = replayOrdered(th, records, tables, base, base-segBase)
	return applied, segBase + commits, err
}

// NumCommitted returns the number of distinct committed transactions in the
// record stream: the highest timestamp Replay will stamp, which recovery
// must advance the transaction manager to.
func NumCommitted(records []Record) uint64 {
	seen := make(map[uint64]struct{})
	for _, r := range records {
		if r.Type == RecordCommit {
			seen[r.TxnID] = struct{}{}
		}
	}
	return uint64(len(seen))
}
