package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"mb2/internal/hw"
	"mb2/internal/storage"
)

func th() *hw.Thread { return hw.NewThread(hw.DefaultCPU()) }

func rec(txnID uint64, payload storage.Tuple) Record {
	return Record{Type: RecordUpdate, TxnID: txnID, TableID: 3, Row: 42, Payload: payload}
}

func TestSerializeRoundTripHeader(t *testing.T) {
	r := rec(7, storage.Tuple{storage.NewInt(5), storage.NewString("abc")})
	buf := r.Serialize(nil)
	if len(buf) < frameOverhead {
		t.Fatal("too short")
	}
	n := binary.LittleEndian.Uint32(buf[:4])
	if int(n) != len(buf)-frameOverhead {
		t.Fatalf("length prefix %d != body %d", n, len(buf)-frameOverhead)
	}
	body := buf[frameOverhead:]
	if got, want := binary.LittleEndian.Uint32(buf[4:8]), crc32.Checksum(body, crcTable); got != want {
		t.Fatalf("frame CRC %#x != %#x", got, want)
	}
	if RecordType(body[0]) != RecordUpdate {
		t.Fatal("type byte wrong")
	}
	if binary.LittleEndian.Uint64(body[1:9]) != 7 {
		t.Fatal("txn id wrong")
	}
}

func TestSerializeAppendsMultiple(t *testing.T) {
	var buf []byte
	buf = rec(1, nil).Serialize(buf)
	l1 := len(buf)
	buf = rec(2, storage.Tuple{storage.NewInt(9)}).Serialize(buf)
	if len(buf) <= l1 {
		t.Fatal("second record not appended")
	}
	// Both records parse out by walking frame headers.
	count := 0
	for off := 0; off < len(buf); {
		n := int(binary.LittleEndian.Uint32(buf[off : off+4]))
		off += frameOverhead + n
		count++
	}
	if count != 2 {
		t.Fatalf("walked %d records, want 2", count)
	}
}

func TestBufferRotation(t *testing.T) {
	m := NewManager(256)
	payload := storage.Tuple{storage.NewString("0123456789abcdef0123456789abcdef")}
	for i := 0; i < 20; i++ {
		m.Enqueue(th(), rec(uint64(i), payload))
	}
	if m.PendingRecords() != 20 {
		t.Fatalf("pending records = %d", m.PendingRecords())
	}
	ser := m.Serialize(th())
	if ser.Records != 20 || ser.Bytes == 0 {
		t.Fatalf("serialize stats: %+v", ser)
	}
	if ser.Buffers < 2 {
		t.Fatalf("small buffer must rotate: %d buffers sealed", ser.Buffers)
	}
	records, bytes, _, _, _ := m.Stats()
	if records != 20 || int(bytes) != ser.Bytes {
		t.Fatalf("stats: %d records %d bytes", records, bytes)
	}
	if m.PendingBytes() == 0 {
		t.Fatal("pending bytes must accumulate")
	}
	st, err := m.Flush(th())
	if err != nil {
		t.Fatal(err)
	}
	if st.Blocks <= 0 || st.Bytes != ser.Bytes {
		t.Fatalf("flush stats wrong: %+v vs %d serialized", st, ser.Bytes)
	}
	if m.PendingBytes() != 0 {
		t.Fatal("flush must drain")
	}
	if m.Serialize(nil).Records != 0 {
		t.Fatal("empty serialize must be a no-op")
	}
}

func TestFlushEmpty(t *testing.T) {
	m := NewManager(0) // default size kicks in
	st, err := m.Flush(th())
	if err != nil {
		t.Fatal(err)
	}
	if st.Bytes != 0 || st.Buffers != 0 || st.Blocks != 0 {
		t.Fatalf("empty flush: %+v", st)
	}
}

func TestFlushChargesBlockWrites(t *testing.T) {
	m := NewManager(64 * 1024)
	for i := 0; i < 100; i++ {
		m.Enqueue(nil, rec(uint64(i), storage.Tuple{storage.NewInt(int64(i))}))
	}
	m.Serialize(nil)
	w := th()
	st, err := m.Flush(w)
	if err != nil {
		t.Fatal(err)
	}
	metrics := w.Since(hw.Counters{})
	if metrics.BlockWrites != float64(st.Blocks) {
		t.Fatalf("block writes %v != %d", metrics.BlockWrites, st.Blocks)
	}
	if metrics.ElapsedUS <= metrics.CPUTimeUS {
		t.Fatal("flush must include IO wait")
	}
}

// A steady-state pass reuses the manager's scratch: the drained queue's
// storage goes back to Enqueue, and the encode buffer and the gathered
// device write are kept, so what a pass still allocates is the log buffer it
// hands to Flush, the sealed list and the device's own growth — a few
// objects however many records it carries. A bulk pass's oversized scratch
// is dropped, not kept on the heap.
func TestSerializeFlushReuseScratch(t *testing.T) {
	m := NewManager(64 * 1024)
	payload := storage.Tuple{storage.NewInt(1), storage.NewInt(2)}
	pass := func(records int) {
		for i := 0; i < records; i++ {
			if err := m.Enqueue(nil, rec(uint64(i), payload)); err != nil {
				t.Fatal(err)
			}
		}
		m.Serialize(nil)
		if _, err := m.Flush(nil); err != nil {
			t.Fatal(err)
		}
	}
	pass(200) // grow the scratch once
	pass(200)
	if allocs := testing.AllocsPerRun(50, func() { pass(200) }); allocs > 4 {
		t.Fatalf("a steady-state pass of 200 records allocates %.0f objects", allocs)
	}
	// AllocsPerRun makes one warm-up call of its own: 53 passes so far.
	records, serialized, flushed, _, _ := m.Stats()
	if records != 53*200 || serialized != flushed {
		t.Fatalf("%d records, %d bytes serialized, %d flushed", records, serialized, flushed)
	}
	if got, _, reason := DeserializePrefix(m.Durable()[SegmentHeaderLen:]); len(got) != int(records) || reason != "" {
		t.Fatalf("durable image decodes to %d of %d records (%s)", len(got), records, reason)
	}

	pass(2 * maxScratchRecords)
	if m.spareQueue != nil || m.serBuf != nil || m.flushBuf != nil {
		t.Fatalf("bulk pass kept its scratch: queue cap %d, encode cap %d, write cap %d",
			cap(m.spareQueue), cap(m.serBuf), cap(m.flushBuf))
	}
}

// DurableSince answers a follower at (epoch, offset) with the current epoch
// and exactly the bytes it lacks: the suffix while its epoch is current, the
// whole new segment after ResetLog.
func TestDurableSince(t *testing.T) {
	m := NewManager(1024)
	flush := func(n int) {
		for i := 0; i < n; i++ {
			m.Enqueue(nil, rec(uint64(i), storage.Tuple{storage.NewInt(int64(i))}))
		}
		m.Serialize(nil)
		if _, err := m.Flush(nil); err != nil {
			t.Fatal(err)
		}
	}
	flush(5)
	epoch, all := m.DurableSince(0, 0)
	if epoch != 0 || !bytes.Equal(all, m.Durable()) {
		t.Fatalf("from the start: epoch %d, %d of %d bytes", epoch, len(all), len(m.Durable()))
	}
	flush(3)
	epoch, tail := m.DurableSince(0, len(all))
	if epoch != 0 || !bytes.Equal(append(all, tail...), m.Durable()) {
		t.Fatalf("suffix from %d: epoch %d, %d bytes of a %d-byte log", len(all), epoch, len(tail), len(m.Durable()))
	}
	if _, none := m.DurableSince(0, len(all)+len(tail)); len(none) != 0 {
		t.Fatalf("a follower that has everything got %d bytes", len(none))
	}
	if err := m.ResetLog(4); err != nil {
		t.Fatal(err)
	}
	flush(2)
	epoch, seg := m.DurableSince(0, len(all)+len(tail))
	if epoch != 4 || !bytes.Equal(seg, m.Durable()) {
		t.Fatalf("after truncation: epoch %d, %d of %d bytes", epoch, len(seg), len(m.Durable()))
	}
}
