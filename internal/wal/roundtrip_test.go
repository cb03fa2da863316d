package wal

import (
	"math"
	"math/rand"
	"testing"

	"mb2/internal/storage"
)

// TestRecordRoundTrip is a randomized serialization property test: any
// stream of records — every type, payloads mixing ints, floats (finite, -0,
// ±Inf and NaNs with random payloads), and strings (empty, embedded NULs,
// non-UTF8 bytes) — must survive Serialize -> Deserialize bit for bit,
// including record order.
func TestRecordRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	for trial := 0; trial < 25; trial++ {
		n := rng.Intn(60)
		records := make([]Record, n)
		for i := range records {
			records[i] = randRecord(rng)
		}

		var buf []byte
		for _, r := range records {
			buf = r.Serialize(buf)
		}
		got, err := Deserialize(buf)
		if err != nil {
			t.Fatalf("trial %d: deserialize: %v", trial, err)
		}
		if len(got) != n {
			t.Fatalf("trial %d: wrote %d records, read back %d", trial, n, len(got))
		}
		for i := range records {
			if !recordEqual(records[i], got[i]) {
				t.Fatalf("trial %d: record %d diverged:\n wrote %+v\n read  %+v", trial, i, records[i], got[i])
			}
		}
	}
}

func randRecord(rng *rand.Rand) Record {
	r := Record{
		Type:    RecordType(rng.Intn(4) + 1), // RecordInsert..RecordCommit
		TxnID:   rng.Uint64(),
		TableID: int32(rng.Int31() - math.MaxInt32/2),
		Row:     int64(rng.Uint64()),
	}
	if r.Type != RecordCommit && r.Type != RecordDelete {
		r.Payload = make(storage.Tuple, rng.Intn(6))
		for i := range r.Payload {
			switch rng.Intn(3) {
			case 0:
				r.Payload[i] = storage.NewInt(int64(rng.Uint64()))
			case 1:
				r.Payload[i] = storage.NewFloat(randFloat(rng))
			default:
				b := make([]byte, rng.Intn(100))
				rng.Read(b)
				r.Payload[i] = storage.NewString(string(b))
			}
		}
	}
	return r
}

// randFloat draws a finite float most of the time, and otherwise one of
// the values whose bits an arithmetic round trip would not keep: -0, ±Inf,
// or a quiet NaN with a random payload.
func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return math.Float64frombits(0x7ff8<<48 | rng.Uint64()&(1<<51-1))
	}
	return rng.NormFloat64() * math.Ldexp(1, rng.Intn(100)-50)
}

// recordEqual compares payload values as structs: a float's IEEE-754 bits
// are its I, so -0 differs from 0 and a NaN equals only its own bits.
func recordEqual(a, b Record) bool {
	if a.Type != b.Type || a.TxnID != b.TxnID || a.TableID != b.TableID || a.Row != b.Row {
		return false
	}
	if len(a.Payload) != len(b.Payload) {
		return false
	}
	for i := range a.Payload {
		if a.Payload[i] != b.Payload[i] {
			return false
		}
	}
	return true
}

// TestDeserializeRejectsTruncation pins the corruption path: cutting a
// serialized stream anywhere inside a record must produce an error or a
// clean prefix, never a panic or phantom records.
func TestDeserializeRejectsTruncation(t *testing.T) {
	var buf []byte
	r := Record{Type: RecordUpdate, TxnID: 9, TableID: 2, Row: 7,
		Payload: storage.Tuple{storage.NewInt(1), storage.NewString("abc")}}
	buf = r.Serialize(buf)
	for cut := 1; cut < len(buf); cut++ {
		got, err := Deserialize(buf[:cut])
		if err == nil && len(got) != 0 {
			t.Fatalf("truncation at %d/%d produced %d phantom records", cut, len(buf), len(got))
		}
	}
}
