package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"runtime/debug"
	"testing"

	"mb2/internal/hw"
	"mb2/internal/storage"
)

// appendCheckpointImage appends the image of ck, encoded by the one
// checkpoint encoder, to dst.
func appendCheckpointImage(dst []byte, ck Checkpoint) []byte {
	e := NewCheckpointEncoder(dst, 0)
	for _, r := range ck.Records {
		e.Add(r.TableID, r.Row, r.Payload)
	}
	return e.Finish(ck.Epoch, ck.SnapshotTS)
}

// referenceCheckpointImage encodes ck the way the format is specified, one
// piece after the other: the insert frames into a payload, then the header
// (magic, epoch, snapshot, payload length and CRC, header CRC), then the
// payload.
func referenceCheckpointImage(ck Checkpoint) []byte {
	var payload []byte
	for _, r := range ck.Records {
		payload = Record{Type: RecordInsert, TableID: r.TableID, Row: r.Row, Payload: r.Payload}.Serialize(payload)
	}
	img := append([]byte(nil), ckptMagic...)
	img = binary.LittleEndian.AppendUint64(img, ck.Epoch)
	img = binary.LittleEndian.AppendUint64(img, ck.SnapshotTS)
	img = binary.LittleEndian.AppendUint32(img, uint32(len(payload)))
	img = binary.LittleEndian.AppendUint32(img, crc32.Checksum(payload, crcTable))
	img = binary.LittleEndian.AppendUint32(img, crc32.Checksum(img, crcTable))
	return append(img, payload...)
}

// mixedRecords returns n records of every kind, with int, float, varchar
// and negative values.
func mixedRecords(n int) []Record {
	out := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		id := int64(i)
		var r Record
		switch i % 4 {
		case 0:
			r = Record{Type: RecordInsert, TxnID: uint64(i), TableID: 1, Row: id,
				Payload: storage.Tuple{storage.NewInt(-id), storage.NewFloat(float64(i) / 3), storage.NewString("row")}}
		case 1:
			r = Record{Type: RecordUpdate, TxnID: uint64(i), TableID: -2, Row: -id,
				Payload: storage.Tuple{storage.NewString(""), storage.NewFloat(math.Inf(-1)), storage.NewInt(math.MinInt64)}}
		case 2:
			r = Record{Type: RecordDelete, TxnID: uint64(i), TableID: 1, Row: id}
		default:
			r = Record{Type: RecordCommit, TxnID: uint64(i)}
		}
		out = append(out, r)
	}
	return out
}

func TestEncodedLenMatchesSerialize(t *testing.T) {
	for i, r := range mixedRecords(8) {
		if got, want := r.EncodedLen(), len(r.Serialize(nil)); got != want {
			t.Fatalf("record %d: EncodedLen %d, Serialize wrote %d bytes", i, got, want)
		}
	}
	big := Record{Type: RecordInsert, Payload: storage.Tuple{storage.NewString(string(make([]byte, 70<<10)))}}
	if got, want := big.EncodedLen(), len(big.Serialize(nil)); got != want {
		t.Fatalf("70 KiB varchar: EncodedLen %d, Serialize wrote %d bytes", got, want)
	}
}

// The bulk path — one buffer sized by EncodedLen that becomes the log
// buffer, one gathered write sized by the sealed bytes — writes what
// encoding each record's frame after the segment header writes, whether
// the pass finds the log buffer empty or holding an earlier pass's bytes.
func TestBulkSerializeFlushMatchesFrameByFrame(t *testing.T) {
	m := NewManagerOn(4096, hw.NewMemDevice())
	want := appendSegmentHeader(nil, 0)
	enqueue := func(records []Record) {
		for _, r := range records {
			if err := m.Enqueue(nil, r); err != nil {
				t.Fatal(err)
			}
			want = r.Serialize(want)
		}
	}
	flush := func() {
		if _, err := m.Flush(nil); err != nil {
			t.Fatal(err)
		}
	}
	bulk := mixedRecords(3 * maxScratchBytes / 40)

	enqueue(bulk[:10]) // a small pass leaves bytes in the log buffer
	m.Serialize(nil)
	enqueue(bulk) // a bulk pass appended behind them
	m.Serialize(nil)
	flush()
	enqueue(bulk) // a bulk pass into an empty log buffer
	if st := m.Serialize(nil); st.Bytes <= maxScratchBytes {
		t.Fatalf("a pass of %d bytes is not bulk", st.Bytes)
	}
	flush()
	enqueue(bulk[:3]) // and a steady-state pass after them
	m.Serialize(nil)
	flush()

	if got := m.Durable(); !bytes.Equal(got, want) {
		t.Fatalf("durable image: %d bytes, frame by frame %d bytes", len(got), len(want))
	}
}

// sinkDevice takes every write and keeps only its length, so a test counts
// the allocations of the code under it, not the device's.
type sinkDevice struct{ n int }

func (d *sinkDevice) Append(p []byte) (int, error)         { d.n += len(p); return len(p), nil }
func (d *sinkDevice) Contents() []byte                     { return nil }
func (d *sinkDevice) Views(dst [][]byte, off int) [][]byte { return dst }
func (d *sinkDevice) Len() int                             { return d.n }
func (d *sinkDevice) Reset(p []byte) error                 { d.n = len(p); return nil }

// A bulk Serialize+Flush allocates its encode buffer and its device write
// once each, at their final size: as many objects for 4n records as for n
// (two without the race detector, whose instrumentation adds its own).
// Collection is off while it counts, so none lands in the window.
func TestBulkSerializeFlushAllocatesOnce(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(n int) float64 {
		m := NewManagerOn(64*1024, &sinkDevice{})
		m.DrainEvery(n) // the queue's storage is kept: Enqueue is not measured
		records := mixedRecords(n)
		pass := func() {
			for _, r := range records {
				if err := m.Enqueue(nil, r); err != nil {
					t.Fatal(err)
				}
			}
			m.Serialize(nil)
			if _, err := m.Flush(nil); err != nil {
				t.Fatal(err)
			}
		}
		pass() // grow the two queues Enqueue and Serialize trade
		pass()
		return testing.AllocsPerRun(5, pass)
	}
	if small, large := allocs(20_000), allocs(80_000); small != large {
		t.Fatalf("a bulk pass allocates %.0f objects for 20 000 records, %.0f for 80 000", small, large)
	}
}

// The encoder writes the image the format specifies, byte for byte, for
// rows of several tables with every value kind.
func TestCheckpointEncoderMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		ck := Checkpoint{Epoch: uint64(n) + 1, SnapshotTS: uint64(n) * 3}
		for _, r := range mixedRecords(n) {
			ck.Records = append(ck.Records, Record{TableID: r.TableID, Row: r.Row, Payload: r.Payload})
		}
		// A hint too small makes the buffer grow; one too large leaves
		// capacity unused. Neither changes a byte.
		for _, hint := range []int{0, 1 << 16} {
			prefix := []byte("device")
			e := NewCheckpointEncoder(append([]byte(nil), prefix...), hint)
			for _, r := range ck.Records {
				e.Add(r.TableID, r.Row, r.Payload)
			}
			got := e.Finish(ck.Epoch, ck.SnapshotTS)
			want := append(append([]byte(nil), prefix...), referenceCheckpointImage(ck)...)
			if !bytes.Equal(got, want) {
				t.Fatalf("%d rows, hint %d: encoder wrote %d bytes, reference %d", n, hint, len(got), len(want))
			}
		}
	}
}
