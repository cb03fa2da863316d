package wal

import (
	"encoding/binary"
	"hash/crc32"
	"testing"

	"mb2/internal/catalog"
	"mb2/internal/hw"
	"mb2/internal/storage"
)

func testMeta() *catalog.TableMeta {
	return &catalog.TableMeta{ID: 3, Name: "t", Schema: catalog.NewSchema(
		catalog.Column{Name: "k", Type: catalog.Int64},
		catalog.Column{Name: "f", Type: catalog.Float64},
		catalog.Column{Name: "s", Type: catalog.Varchar},
	)}
}

func TestSerializeDeserializeRoundTrip(t *testing.T) {
	records := []Record{
		{Type: RecordInsert, TxnID: 1, TableID: 3, Row: 0,
			Payload: storage.Tuple{storage.NewInt(-42), storage.NewFloat(3.25), storage.NewString("héllo")}},
		{Type: RecordUpdate, TxnID: 1, TableID: 3, Row: 0,
			Payload: storage.Tuple{storage.NewInt(7), storage.NewFloat(-0.5), storage.NewString("")}},
		{Type: RecordDelete, TxnID: 2, TableID: 3, Row: 5},
		{Type: RecordCommit, TxnID: 1},
	}
	var buf []byte
	for _, r := range records {
		buf = r.Serialize(buf)
	}
	got, err := Deserialize(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(records) {
		t.Fatalf("decoded %d records, want %d", len(got), len(records))
	}
	for i, r := range records {
		g := got[i]
		if g.Type != r.Type || g.TxnID != r.TxnID || g.TableID != r.TableID || g.Row != r.Row {
			t.Fatalf("record %d header mismatch: %+v vs %+v", i, g, r)
		}
		if len(g.Payload) != len(r.Payload) {
			t.Fatalf("record %d payload length %d vs %d", i, len(g.Payload), len(r.Payload))
		}
		for j := range r.Payload {
			if g.Payload[j] != r.Payload[j] {
				t.Fatalf("record %d value %d: %v vs %v", i, j, g.Payload[j], r.Payload[j])
			}
		}
	}
}

func TestDeserializeCorruptInput(t *testing.T) {
	good := Record{Type: RecordInsert, TxnID: 1, TableID: 3, Row: 0,
		Payload: storage.Tuple{storage.NewInt(1)}}.Serialize(nil)
	for _, cut := range []int{1, 3, 10, len(good) - 1} {
		if _, err := Deserialize(good[:cut]); err == nil {
			t.Errorf("truncation at %d must error", cut)
		}
	}
	bad := append([]byte(nil), good...)
	// Value kind byte: 8-byte frame header + 25-byte record header. A CRC
	// mismatch alone would reject the frame; recompute the CRC so the decode
	// path itself must catch the bogus kind.
	bad[frameOverhead+recordHeaderLen] = 99
	binary.LittleEndian.PutUint32(bad[4:8], crc32.Checksum(bad[frameOverhead:], crcTable))
	if _, err := Deserialize(bad); err == nil {
		t.Error("unknown value kind must error")
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0x01 // CRC must catch silent corruption
	if _, err := Deserialize(flipped); err == nil {
		t.Error("bit flip must fail the frame CRC")
	}
}

func TestReplayAppliesOnlyCommitted(t *testing.T) {
	// Simulated pre-crash history: txn 1 commits an insert+update, txn 2's
	// insert never commits, txn 3 commits a delete of txn 1's row.
	tuple := func(k int64, s string) storage.Tuple {
		return storage.Tuple{storage.NewInt(k), storage.NewFloat(0), storage.NewString(s)}
	}
	records := []Record{
		{Type: RecordInsert, TxnID: 1, TableID: 3, Row: 0, Payload: tuple(1, "a")},
		{Type: RecordInsert, TxnID: 2, TableID: 3, Row: 1, Payload: tuple(2, "ghost")},
		{Type: RecordUpdate, TxnID: 1, TableID: 3, Row: 0, Payload: tuple(1, "b")},
		{Type: RecordCommit, TxnID: 1},
		{Type: RecordInsert, TxnID: 3, TableID: 3, Row: 2, Payload: tuple(3, "c")},
		{Type: RecordCommit, TxnID: 3},
	}

	tbl := storage.NewTable(testMeta())
	var redo Redo
	applied, commits, err := redo.Apply(nil, records, map[int32]*storage.Table{3: tbl}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 3 || commits != 2 {
		t.Fatalf("applied %d records of %d commits, want 3 of 2", applied, commits)
	}
	// Row 0 carries txn 1's final update.
	got, err := tbl.Read(nil, 0, 99, storage.MaxTS)
	if err != nil || got[2].S != "b" {
		t.Fatalf("row 0 = %v, %v", got, err)
	}
	// Row 1 (uncommitted txn 2) must not exist.
	if _, err := tbl.Read(nil, 1, 99, storage.MaxTS); err == nil {
		t.Fatal("uncommitted insert resurrected")
	}
	// Row 2 exists.
	if got, err := tbl.Read(nil, 2, 99, storage.MaxTS); err != nil || got[0].I != 3 {
		t.Fatalf("row 2 = %v, %v", got, err)
	}
}

func TestReplayDelete(t *testing.T) {
	records := []Record{
		{Type: RecordInsert, TxnID: 1, TableID: 3, Row: 0,
			Payload: storage.Tuple{storage.NewInt(1), storage.NewFloat(0), storage.NewString("x")}},
		{Type: RecordCommit, TxnID: 1},
		{Type: RecordDelete, TxnID: 2, TableID: 3, Row: 0},
		{Type: RecordCommit, TxnID: 2},
	}
	tbl := storage.NewTable(testMeta())
	var redo Redo
	if _, _, err := redo.Apply(nil, records, map[int32]*storage.Table{3: tbl}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Read(nil, 0, 99, storage.MaxTS); err == nil {
		t.Fatal("deleted row visible after replay")
	}
}

func TestReplayUnknownTable(t *testing.T) {
	records := []Record{
		{Type: RecordInsert, TxnID: 1, TableID: 9, Row: 0,
			Payload: storage.Tuple{storage.NewInt(1)}},
		{Type: RecordCommit, TxnID: 1},
	}
	var redo Redo
	if _, _, err := redo.Apply(nil, records, map[int32]*storage.Table{}, 0); err == nil {
		t.Fatal("unknown table must error")
	}
}

func TestDurableImageRoundTrip(t *testing.T) {
	m := NewManagerOn(128, hw.NewMemDevice())
	for i := 0; i < 10; i++ {
		m.Enqueue(nil, Record{Type: RecordInsert, TxnID: uint64(i), TableID: 3, Row: int64(i),
			Payload: storage.Tuple{storage.NewInt(int64(i))}})
	}
	m.Enqueue(nil, Record{Type: RecordCommit, TxnID: 4})
	m.Serialize(nil)
	if _, err := m.Flush(nil); err != nil {
		t.Fatal(err)
	}

	epoch, body, torn, err := ParseSegment(m.Durable())
	if err != nil || torn || epoch != 0 {
		t.Fatalf("segment: epoch=%d torn=%v err=%v", epoch, torn, err)
	}
	recs, err := Deserialize(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 11 {
		t.Fatalf("durable image has %d records, want 11", len(recs))
	}
	tbl := storage.NewTable(testMeta())
	var redo Redo
	applied, _, err := redo.Apply(nil, recs, map[int32]*storage.Table{3: tbl}, 0)
	if err != nil || applied != 1 {
		t.Fatalf("applied=%d err=%v (only txn 4 committed)", applied, err)
	}
	if _, err := tbl.Read(nil, 4, 99, storage.MaxTS); err != nil {
		t.Fatal("committed row missing after end-to-end replay")
	}
}

// DeserializeParts is DeserializePrefix over a log held in pieces: however
// the pieces cut it — through frame headers and bodies, one byte at a time
// — and from whatever offset, it decodes the same records and spans the same
// prefix, stopping at a corrupt frame and at a torn tail as the whole-buffer
// parse does.
func TestDeserializePartsMatchesPrefix(t *testing.T) {
	var log []byte
	for i := 0; i < 12; i++ {
		log = rec(uint64(i), storage.Tuple{storage.NewInt(int64(i)), storage.NewString(string(make([]byte, i*5)))}).Serialize(log)
	}
	corrupt := append([]byte(nil), log...)
	corrupt[len(log)/2] ^= 0x40
	for name, img := range map[string][]byte{"clean": log, "corrupt": corrupt, "torn": log[:len(log)-3]} {
		for _, size := range []int{1, 2, 3, 7, 8, 9, 40, len(img)} {
			var parts [][]byte
			for off := 0; off < len(img); off += size {
				parts = append(parts, img[off:min(off+size, len(img))])
			}
			for _, off := range []int{0, 5, 8, len(img) / 3} {
				want, wantN, _ := DeserializePrefix(img[off:])
				got, gotN := DeserializeParts(nil, parts, off)
				if gotN != wantN || len(got) != len(want) {
					t.Fatalf("%s log in parts of %d from %d: %d records over %d bytes, want %d over %d",
						name, size, off, len(got), gotN, len(want), wantN)
				}
				for i := range got {
					if got[i].TxnID != want[i].TxnID || len(got[i].Payload) != len(want[i].Payload) ||
						got[i].Payload[1].S != want[i].Payload[1].S {
						t.Fatalf("%s log in parts of %d from %d: record %d differs", name, size, off, i)
					}
				}
			}
		}
	}
}
