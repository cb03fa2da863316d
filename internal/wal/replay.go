package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

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
	return appendRecords(nil, buf)
}

// appendRecords is DeserializePrefix appending to records, which it grows
// once to hold every frame buf lays out.
func appendRecords(records []Record, buf []byte) ([]Record, int, string) {
	records = slices.Grow(records, numFrames(buf))
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

// numFrames counts the frames a frame stream's length words lay out, up to
// the first that runs past its end: at least as many records as
// appendRecords decodes from it, and at most one per frameOverhead bytes.
func numFrames(buf []byte) int {
	n := 0
	for off := 0; off+frameOverhead <= len(buf); n++ {
		off += frameOverhead + int(binary.LittleEndian.Uint32(buf[off:off+4]))
	}
	return n
}

// DeserializeParts is DeserializePrefix over the bytes from off on of the
// concatenation of parts — a log held in pieces that never move, as a
// replica holds what it received — appending the records to records and
// returning how many bytes past off the valid prefix spans. Frames are
// decoded where they lie; only a frame that straddles two parts is copied,
// and only that frame.
func DeserializeParts(records []Record, parts [][]byte, off int) ([]Record, int) {
	var cur []byte // the rest of the part being parsed
	cur, parts = skipParts(nil, parts, off)
	consumed := 0
	for len(cur) > 0 || len(parts) > 0 {
		if len(cur) == 0 {
			cur, parts = parts[0], parts[1:]
		}
		var n int
		records, n, _ = appendRecords(records, cur)
		consumed += n
		if cur = cur[n:]; len(cur) == 0 {
			continue
		}
		// The frame at cur is corrupt or runs on into the parts after it:
		// decode a whole copy of it, if there is a whole one.
		frame := gatherFrame(cur, parts)
		if frame == nil {
			break
		}
		if records, n, _ = appendRecords(records, frame); n == 0 {
			break
		}
		consumed += n
		cur, parts = skipParts(cur, parts, n)
	}
	return records, consumed
}

// skipParts drops the first n bytes of cur followed by parts.
func skipParts(cur []byte, parts [][]byte, n int) ([]byte, [][]byte) {
	for n > len(cur) && len(parts) > 0 {
		n -= len(cur)
		cur, parts = parts[0], parts[1:]
	}
	return cur[min(n, len(cur)):], parts
}

// gatherFrame copies the frame that starts at cur and may continue into
// parts, or returns nil when the bytes end before it does.
func gatherFrame(cur []byte, parts [][]byte) []byte {
	var hdr [frameOverhead]byte
	if gatherParts(hdr[:], cur, parts) < frameOverhead {
		return nil
	}
	n := frameOverhead + int(binary.LittleEndian.Uint32(hdr[:4]))
	avail := len(cur)
	for _, p := range parts {
		if avail >= n {
			break
		}
		avail += len(p)
	}
	if avail < n {
		return nil
	}
	frame := make([]byte, n)
	gatherParts(frame, cur, parts)
	return frame
}

// gatherParts copies into dst the first bytes of cur followed by parts and
// returns how many it copied.
func gatherParts(dst, cur []byte, parts [][]byte) int {
	n := copy(dst, cur)
	for _, p := range parts {
		if n == len(dst) {
			break
		}
		n += copy(dst[n:], p)
	}
	return n
}

// recordHeaderLen is the fixed-size prefix of a record body:
// type(1) + txnID(8) + tableID(4) + row(8) + value count(4).
const recordHeaderLen = 1 + 8 + 4 + 8 + 4

// minValueLen is the smallest encoded value: an empty varchar's kind and
// length.
const minValueLen = 1 + 4

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
	if nvals > 0 {
		// Every value takes at least minValueLen bytes, which bounds what
		// a corrupt count can reserve.
		r.Payload = make(storage.Tuple, 0, min(nvals, (len(b)-off)/minValueLen))
	}
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
		case catalog.Int64, catalog.Float64:
			if off+8 > len(b) {
				return r, fmt.Errorf("wal: truncated %s", kind)
			}
			// The eight bytes are the value's I: an integer, or a
			// float's IEEE-754 bits.
			r.Payload = append(r.Payload, storage.Value{Kind: kind, I: int64(binary.LittleEndian.Uint64(b[off : off+8]))})
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

// Redo applies a log's records to tables. It is the one redo path:
// recovery (engine.DB.RecoverImages), a replica (repl.Replica) and the
// REPLAY OU runner all apply logs through it. A log is fed whole or in
// pieces, in order, and each Apply costs in proportion to the records it is
// given. A transaction's writes are held until its commit record arrives,
// then applied in log order at the next commit timestamp; a transaction
// whose commit record never arrives is never applied, as a crash loses
// uncommitted work. engine.DB.CommitLogged writes commit records in
// commit-timestamp order, and a transaction's writes before its one commit
// record, so the rebuilt version chains carry the live tables' newest-wins
// order — and however the log is cut into pieces, the same writes are
// applied in the same order at the same timestamps with the same charges.
// The zero Redo starts a new log.
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

// NumCommitted returns the number of commit records in the record stream:
// how many transactions Redo.Apply commits when fed the stream, and so the
// highest timestamp it stamps above its base.
func NumCommitted(records []Record) uint64 {
	n := uint64(0)
	for _, r := range records {
		if r.Type == RecordCommit {
			n++
		}
	}
	return n
}
