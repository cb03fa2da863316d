package wal

import (
	"testing"

	"mb2/internal/hw"
	"mb2/internal/storage"
)

// FuzzWALDeserialize throws arbitrary bytes at the tolerant and strict
// parsers. The corpus is seeded from real flush images (segment header
// stripped) so mutation starts from well-formed frames. Invariants:
// DeserializePrefix never panics, its consumed prefix re-parses strictly and
// re-serializes byte-identically, every record's EncodedLen is the length
// it serializes to, and Deserialize accepts exactly the inputs
// DeserializePrefix consumes in full.
func FuzzWALDeserialize(f *testing.F) {
	seedImage := func(records ...Record) []byte {
		m := NewManagerOn(256, hw.NewMemDevice())
		for _, r := range records {
			if err := m.Enqueue(nil, r); err != nil {
				f.Fatal(err)
			}
		}
		m.Serialize(nil)
		if _, err := m.Flush(nil); err != nil {
			f.Fatal(err)
		}
		_, body, _, err := ParseSegment(m.Durable())
		if err != nil {
			f.Fatal(err)
		}
		return body
	}
	f.Add([]byte{})
	f.Add(seedImage(
		Record{Type: RecordInsert, TxnID: 1, TableID: 3, Row: 0,
			Payload: storage.Tuple{storage.NewInt(-42), storage.NewFloat(3.25), storage.NewString("héllo")}},
		Record{Type: RecordCommit, TxnID: 1},
	))
	f.Add(seedImage(
		Record{Type: RecordUpdate, TxnID: 9, TableID: 1, Row: 12345,
			Payload: storage.Tuple{storage.NewString(""), storage.NewString("abcdef")}},
		Record{Type: RecordDelete, TxnID: 9, TableID: 1, Row: 12345},
		Record{Type: RecordCommit, TxnID: 9},
	))

	f.Fuzz(func(t *testing.T, data []byte) {
		records, consumed, reason := DeserializePrefix(data)
		if consumed < 0 || consumed > len(data) {
			t.Fatalf("consumed %d of %d", consumed, len(data))
		}
		if consumed != len(data) && reason == "" {
			t.Fatal("partial prefix must carry a reason")
		}
		// The consumed prefix is exactly what the strict parser accepts.
		strict, err := Deserialize(data[:consumed])
		if err != nil {
			t.Fatalf("strict parse of valid prefix failed: %v", err)
		}
		if len(strict) != len(records) {
			t.Fatalf("strict=%d tolerant=%d records", len(strict), len(records))
		}
		if _, err := Deserialize(data); (err == nil) != (consumed == len(data)) {
			t.Fatalf("strict/tolerant disagree: consumed %d/%d, err=%v", consumed, len(data), err)
		}
		// Round trip: re-serializing the parsed records rebuilds the prefix.
		var rebuilt []byte
		for _, r := range records {
			if err := r.Validate(); err != nil {
				t.Fatalf("parsed record fails validation: %v", err)
			}
			if n := len(r.Serialize(nil)); n != r.EncodedLen() {
				t.Fatalf("record encodes to %d bytes, EncodedLen says %d", n, r.EncodedLen())
			}
			rebuilt = r.Serialize(rebuilt)
		}
		if string(rebuilt) != string(data[:consumed]) {
			t.Fatalf("re-serialization differs: %d vs %d bytes", len(rebuilt), consumed)
		}
	})
}
