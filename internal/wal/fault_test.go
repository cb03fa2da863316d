package wal

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"mb2/internal/hw"
	"mb2/internal/storage"
)

// Regression for the silent uint16 truncation of varchar lengths: a >64KiB
// varchar must round-trip intact through serialize/flush/deserialize.
func TestOversizedVarcharRoundTrips(t *testing.T) {
	big := strings.Repeat("x", 70*1024) // > 64KiB: the old encoding wrapped this to 4KiB
	m := NewManagerOn(1<<20, hw.NewMemDevice())
	r := Record{Type: RecordInsert, TxnID: 1, TableID: 3, Row: 0,
		Payload: storage.Tuple{storage.NewString(big)}}
	if err := m.Enqueue(nil, r); err != nil {
		t.Fatal(err)
	}
	if err := m.Enqueue(nil, Record{Type: RecordCommit, TxnID: 1}); err != nil {
		t.Fatal(err)
	}
	m.Serialize(nil)
	if _, err := m.Flush(nil); err != nil {
		t.Fatal(err)
	}
	_, body, _, err := ParseSegment(m.Durable())
	if err != nil {
		t.Fatal(err)
	}
	recs, err := Deserialize(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || len(recs[0].Payload) != 1 || recs[0].Payload[0].S != big {
		t.Fatalf("oversized varchar corrupted: %d records, payload %d bytes",
			len(recs), len(recs[0].Payload[0].S))
	}
}

// Records beyond the (now explicit) encoding limits are rejected with an
// error instead of being truncated into a corrupt log.
func TestEnqueueRejectsUnencodableRecords(t *testing.T) {
	m := NewManagerOn(1024, hw.NewMemDevice())
	huge := Record{Type: RecordInsert, TxnID: 1, TableID: 3,
		Payload: storage.Tuple{storage.NewString(strings.Repeat("x", MaxVarcharBytes+1))}}
	if err := m.Enqueue(nil, huge); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("oversized varchar: err = %v", err)
	}
	wide := Record{Type: RecordInsert, TxnID: 1, TableID: 3,
		Payload: make(storage.Tuple, MaxPayloadValues+1)}
	if err := m.Enqueue(nil, wide); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("oversized payload: err = %v", err)
	}
	if m.PendingRecords() != 0 {
		t.Fatal("rejected records must not be queued")
	}
	if _, rejected := m.FaultStats(); rejected != 2 {
		t.Fatalf("rejected counter = %d, want 2", rejected)
	}
}

// Transient device failures are absorbed by bounded retry, with the backoff
// waits charged to the flushing thread.
func TestFlushRetriesTransientFailures(t *testing.T) {
	plan := hw.NoFaults()
	plan.TransientEvery = 2 // every other attempt fails once
	dev := hw.NewFaultDevice(nil, plan)
	m := NewManagerOn(1<<20, dev)
	w := th()
	var flushed int
	for i := 0; i < 8; i++ {
		if err := m.Enqueue(nil, rec(uint64(i), storage.Tuple{storage.NewInt(int64(i))})); err != nil {
			t.Fatal(err)
		}
		m.Serialize(nil)
		st, err := m.Flush(w)
		if err != nil {
			t.Fatalf("flush %d: %v", i, err)
		}
		flushed += st.Bytes
	}
	retries, _ := m.FaultStats()
	if retries == 0 {
		t.Fatal("expected transient failures to be retried")
	}
	metrics := w.Since(hw.Counters{})
	if metrics.ElapsedUS <= metrics.CPUTimeUS {
		t.Fatal("retry backoff must appear as non-CPU elapsed time")
	}
	_, body, torn, err := ParseSegment(m.Durable())
	if err != nil || torn {
		t.Fatalf("segment: torn=%v err=%v", torn, err)
	}
	recs, err := Deserialize(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 8 {
		t.Fatalf("%d records durable, want 8 (flushed %d bytes)", len(recs), flushed)
	}
}

// A crashed device surfaces the error from Flush.
func TestFlushSurfacesCrash(t *testing.T) {
	plan := hw.NoFaults()
	plan.CrashAtByte = 0
	m := NewManagerOn(1024, hw.NewFaultDevice(nil, plan))
	if err := m.Enqueue(nil, rec(1, nil)); err != nil {
		t.Fatal(err)
	}
	m.Serialize(nil)
	if _, err := m.Flush(nil); !errors.Is(err, hw.ErrDeviceCrashed) {
		t.Fatalf("err = %v", err)
	}
}

// Race-hammer regression for the Flush ordering bug: the old code drained
// sealed buffers under the lock but appended to the device outside it, so
// two concurrent flushes could interleave the durable image out of seal
// order. With one writer enqueueing records in increasing TxnID order and
// many goroutines racing Serialize/Flush, the durable image must replay the
// TxnIDs in exactly commit order. Run under -race.
func TestFlushConcurrentOrdering(t *testing.T) {
	const total = 4000
	m := NewManagerOn(256, hw.NewMemDevice()) // small buffers: many seals per flush
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					m.Serialize(nil)
					if _, err := m.Flush(nil); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < total; i++ {
		if err := m.Enqueue(nil, Record{Type: RecordCommit, TxnID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	m.Serialize(nil)
	if _, err := m.Flush(nil); err != nil {
		t.Fatal(err)
	}

	_, body, torn, err := ParseSegment(m.Durable())
	if err != nil || torn {
		t.Fatalf("segment: torn=%v err=%v", torn, err)
	}
	recs, err := Deserialize(body)
	if err != nil {
		t.Fatalf("interleaved flushes corrupted the image: %v", err)
	}
	if len(recs) != total {
		t.Fatalf("%d records durable, want %d", len(recs), total)
	}
	for i, r := range recs {
		if r.TxnID != uint64(i) {
			t.Fatalf("record %d has TxnID %d: durable image out of commit order", i, r.TxnID)
		}
	}
}

func TestResetLogRequiresDrain(t *testing.T) {
	m := NewManagerOn(1024, hw.NewMemDevice())
	if err := m.Enqueue(nil, rec(1, nil)); err != nil {
		t.Fatal(err)
	}
	if err := m.ResetLog(1); err == nil {
		t.Fatal("ResetLog with queued records must error")
	}
	m.Serialize(nil)
	if err := m.ResetLog(1); err == nil {
		t.Fatal("ResetLog with sealed buffers must error")
	}
	if _, err := m.Flush(nil); err != nil {
		t.Fatal(err)
	}
	if err := m.ResetLog(1); err != nil {
		t.Fatal(err)
	}
	if m.Epoch() != 1 {
		t.Fatalf("epoch = %d", m.Epoch())
	}
	epoch, body, torn, err := ParseSegment(m.Durable())
	if err != nil || torn || epoch != 1 || len(body) != 0 {
		t.Fatalf("truncated segment: epoch=%d body=%d torn=%v err=%v", epoch, len(body), torn, err)
	}
}

func TestParseSegmentTornAndGarbage(t *testing.T) {
	// Empty image: no log yet.
	if _, body, torn, err := ParseSegment(nil); err != nil || torn || body != nil {
		t.Fatalf("empty: torn=%v err=%v", torn, err)
	}
	hdr := appendSegmentHeader(nil, 7)
	// Torn header prefixes at every length.
	for cut := 1; cut < len(hdr); cut++ {
		_, body, torn, err := ParseSegment(hdr[:cut])
		if err != nil || !torn || len(body) != 0 {
			t.Fatalf("cut=%d: torn=%v err=%v", cut, torn, err)
		}
	}
	// Full header parses.
	epoch, body, torn, err := ParseSegment(hdr)
	if err != nil || torn || epoch != 7 || len(body) != 0 {
		t.Fatalf("full header: epoch=%d torn=%v err=%v", epoch, torn, err)
	}
	// Corrupt header CRC reads as torn, not as an error.
	bad := append([]byte(nil), hdr...)
	bad[9] ^= 0xff
	if _, _, torn, err := ParseSegment(bad); err != nil || !torn {
		t.Fatalf("corrupt header: torn=%v err=%v", torn, err)
	}
	// Garbage that was never a log errors.
	if _, _, _, err := ParseSegment([]byte{1, 2, 3}); err == nil {
		t.Fatal("garbage image must error")
	}
}

func TestDeserializePrefixStopsAtTornTail(t *testing.T) {
	var buf []byte
	for i := 0; i < 5; i++ {
		buf = Record{Type: RecordCommit, TxnID: uint64(i)}.Serialize(buf)
	}
	whole := len(buf)
	frame := whole / 5
	for cut := 0; cut <= whole; cut++ {
		recs, consumed, _ := DeserializePrefix(buf[:cut])
		wantRecs := cut / frame
		if len(recs) != wantRecs || consumed != wantRecs*frame {
			t.Fatalf("cut=%d: got %d records, consumed %d (want %d records)", cut, len(recs), consumed, wantRecs)
		}
	}
	// A flipped bit anywhere inside a frame truncates the prefix there.
	for _, at := range []int{1, 9, frame + 2, 3*frame - 1} {
		bad := append([]byte(nil), buf...)
		bad[at] ^= 0x10
		recs, consumed, reason := DeserializePrefix(bad)
		wantRecs := at / frame
		if len(recs) != wantRecs || consumed != wantRecs*frame || reason == "" {
			t.Fatalf("flip at %d: %d records, consumed %d, reason %q", at, len(recs), consumed, reason)
		}
	}
}

func TestCheckpointImageRoundTripAndTornTail(t *testing.T) {
	mk := func(epoch, ts uint64, n int) Checkpoint {
		ck := Checkpoint{Epoch: epoch, SnapshotTS: ts}
		for i := 0; i < n; i++ {
			ck.Records = append(ck.Records, Record{Type: RecordInsert, TableID: 3, Row: int64(i),
				Payload: storage.Tuple{storage.NewInt(int64(epoch*100 + uint64(i)))}})
		}
		return ck
	}
	img := appendCheckpointImage(nil, mk(2, 25, 4))

	ck, ok, err := LastValidCheckpoint(img)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if ck.Epoch != 2 || ck.SnapshotTS != 25 || len(ck.Records) != 4 {
		t.Fatalf("decoded checkpoint: %+v", ck)
	}
	if ck.Records[3].Payload[0].I != 203 {
		t.Fatalf("payload corrupted: %v", ck.Records[3].Payload)
	}
	if h, ok, err := ParseCheckpointHeader(img[:CheckpointHeaderLen]); err != nil || !ok ||
		h != (CheckpointHeader{Epoch: 2, SnapshotTS: 25, ImageLen: len(img)}) {
		t.Fatalf("header alone: %+v ok=%v err=%v", h, ok, err)
	}

	// A device holds one image: whatever follows a whole one — here a
	// second image torn at every byte, then whole — is not looked at.
	firstLen := len(img)
	two := appendCheckpointImage(img, mk(3, 40, 2))
	for cut := firstLen; cut <= len(two); cut++ {
		ck, ok, err := LastValidCheckpoint(two[:cut])
		if err != nil || !ok || ck.Epoch != 2 || len(ck.Records) != 4 {
			t.Fatalf("cut=%d: epoch=%d ok=%v err=%v", cut, ck.Epoch, ok, err)
		}
	}
	// Tearing inside the image at any byte leaves no checkpoint, and that
	// is not an error (except pure garbage, which is).
	for cut := 1; cut < firstLen; cut++ {
		if _, ok, err := LastValidCheckpoint(img[:cut]); err != nil || ok {
			t.Fatalf("cut=%d: ok=%v err=%v", cut, ok, err)
		}
	}
	if _, _, err := LastValidCheckpoint([]byte("notacheckpoint")); err == nil {
		t.Fatal("garbage checkpoint device must error")
	}
	if _, ok, err := LastValidCheckpoint(nil); err != nil || ok {
		t.Fatalf("empty device: ok=%v err=%v", ok, err)
	}
}

func TestEpochWrittenLazilyOnFirstFlush(t *testing.T) {
	m := NewManagerOn(1024, hw.NewMemDevice())
	if m.Device().Len() != 0 {
		t.Fatal("no header before the first flush")
	}
	if err := m.Enqueue(nil, rec(1, nil)); err != nil {
		t.Fatal(err)
	}
	m.Serialize(nil)
	if _, err := m.Flush(nil); err != nil {
		t.Fatal(err)
	}
	epoch, body, torn, err := ParseSegment(m.Durable())
	if err != nil || torn || epoch != 0 {
		t.Fatalf("epoch=%d torn=%v err=%v", epoch, torn, err)
	}
	if len(body) == 0 {
		t.Fatal("record frames missing")
	}
	// Second flush must not write a second header.
	if err := m.Enqueue(nil, rec(2, nil)); err != nil {
		t.Fatal(err)
	}
	m.Serialize(nil)
	if _, err := m.Flush(nil); err != nil {
		t.Fatal(err)
	}
	_, body, _, _ = ParseSegment(m.Durable())
	if recs, err := Deserialize(body); err != nil || len(recs) != 2 {
		t.Fatalf("recs=%d err=%v", len(recs), err)
	}
}

func ExampleDeserializePrefix() {
	var buf []byte
	buf = Record{Type: RecordCommit, TxnID: 1}.Serialize(buf)
	buf = Record{Type: RecordCommit, TxnID: 2}.Serialize(buf)
	torn := buf[:len(buf)-3] // crash mid-frame
	recs, consumed, reason := DeserializePrefix(torn)
	fmt.Println(len(recs), consumed < len(torn), reason)
	// Output: 1 true torn frame body
}
