package wal

import (
	"testing"

	"mb2/internal/storage"
)

// Table-driven regressions for ParseSegment on degenerate images: every
// shape a crash (or a replication stream cut) can hand recovery must come
// back as a clean (epoch, body, torn) triple — never a panic, never an
// error for something that could legitimately be a torn MB2 segment.
func TestParseSegmentDegenerateImages(t *testing.T) {
	header := appendSegmentHeader(nil, 3)
	oneFrame := Record{Type: RecordCommit, TxnID: 1}.Serialize(append([]byte(nil), header...))
	cases := []struct {
		name    string
		img     []byte
		epoch   uint64
		bodyLen int
		torn    bool
		wantErr bool
	}{
		{name: "empty buffer", img: nil},
		{name: "zero-length slice", img: []byte{}},
		{name: "one magic byte", img: []byte("M"), torn: true},
		{name: "full magic only", img: []byte("MB2WAL01"), torn: true},
		{name: "header minus one byte", img: header[:SegmentHeaderLen-1], torn: true},
		{name: "header-only segment", img: header, epoch: 3},
		{name: "header plus one frame", img: oneFrame, epoch: 3, bodyLen: len(oneFrame) - SegmentHeaderLen},
		{name: "garbage", img: []byte{0xde, 0xad, 0xbe, 0xef}, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			epoch, body, torn, err := ParseSegment(tc.img)
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, wantErr = %v", err, tc.wantErr)
			}
			if tc.wantErr {
				return
			}
			if epoch != tc.epoch || len(body) != tc.bodyLen || torn != tc.torn {
				t.Fatalf("epoch=%d body=%d torn=%v, want epoch=%d body=%d torn=%v",
					epoch, len(body), torn, tc.epoch, tc.bodyLen, tc.torn)
			}
		})
	}
}

// A body cut exactly on a frame boundary is indistinguishable from a clean
// shutdown: the parse must consume everything, report no stop reason, and
// return exactly the frames before the cut — never a phantom record from
// the missing tail.
func TestDeserializePrefixFrameBoundaryCut(t *testing.T) {
	var buf []byte
	var bounds []int
	for i := 0; i < 4; i++ {
		buf = Record{Type: RecordInsert, TxnID: uint64(i), TableID: 3, Row: int64(i),
			Payload: storage.Tuple{storage.NewInt(int64(i))}}.Serialize(buf)
		bounds = append(bounds, len(buf))
	}
	for want, cut := range bounds {
		recs, consumed, reason := DeserializePrefix(buf[:cut])
		if len(recs) != want+1 || consumed != cut || reason != "" {
			t.Fatalf("cut at frame boundary %d: %d records, consumed %d, reason %q",
				cut, len(recs), consumed, reason)
		}
	}
	// Zero-length input is the trivial boundary.
	if recs, consumed, reason := DeserializePrefix(nil); len(recs) != 0 || consumed != 0 || reason != "" {
		t.Fatalf("empty: %d records, consumed %d, reason %q", len(recs), consumed, reason)
	}
}

// Table-driven regressions for LastValidCheckpoint on degenerate images.
// The phantom-record case is the one that used to bite: a header-length
// image whose trailing words happened to decode as "empty payload, CRC 0"
// parsed as a valid checkpoint with garbage epoch/snapshotTS, because the
// header carried no CRC of its own. With the header CRC, every corrupt or
// torn header reads as ok=false.
func TestLastValidCheckpointDegenerateImages(t *testing.T) {
	valid := appendCheckpointImage(nil, Checkpoint{Epoch: 2, SnapshotTS: 9,
		Records: []Record{{Type: RecordInsert, TableID: 3, Row: 1,
			Payload: storage.Tuple{storage.NewInt(42)}}}})

	// A header-only forgery: magic followed by zeros. payloadLen=0 and
	// payloadCRC=0 "match" an empty payload, so before the header CRC this
	// returned ok=true with epoch 0 — a phantom checkpoint.
	forged := make([]byte, CheckpointHeaderLen)
	copy(forged, ckptMagic)

	cases := []struct {
		name    string
		img     []byte
		ok      bool
		epoch   uint64
		wantErr bool
	}{
		{name: "empty buffer", img: nil},
		{name: "zero-length slice", img: []byte{}},
		{name: "one magic byte", img: ckptMagic[:1]},
		{name: "full magic only", img: append([]byte(nil), ckptMagic...)},
		{name: "header minus one byte", img: valid[:CheckpointHeaderLen-1]},
		{name: "header-only zeros (phantom)", img: forged},
		{name: "valid image", img: valid, ok: true, epoch: 2},
		{name: "valid then torn header", img: append(append([]byte(nil), valid...), ckptMagic[:4]...), ok: true, epoch: 2},
		{name: "valid then phantom header", img: append(append([]byte(nil), valid...), forged...), ok: true, epoch: 2},
		{name: "garbage", img: []byte("notacheckpointatall"), wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ck, ok, err := LastValidCheckpoint(tc.img)
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, wantErr = %v", err, tc.wantErr)
			}
			if ok != tc.ok {
				t.Fatalf("ok = %v, want %v (ck=%+v)", ok, tc.ok, ck)
			}
			if ok && ck.Epoch != tc.epoch {
				t.Fatalf("epoch = %d, want %d", ck.Epoch, tc.epoch)
			}
		})
	}

	// Flipping any single header byte of a lone image must yield ok=false,
	// not a phantom with corrupt fields.
	for i := 0; i < CheckpointHeaderLen; i++ {
		bad := append([]byte(nil), valid...)
		bad[i] ^= 0x40
		if _, ok, _ := LastValidCheckpoint(bad); ok {
			t.Fatalf("flip header byte %d: phantom checkpoint accepted", i)
		}
	}
	// Flipping a header byte of a second image changes nothing: only the
	// first is decoded.
	two := appendCheckpointImage(append([]byte(nil), valid...), Checkpoint{Epoch: 3, SnapshotTS: 20})
	for i := len(valid); i < len(valid)+CheckpointHeaderLen; i++ {
		bad := append([]byte(nil), two...)
		bad[i] ^= 0x40
		ck, ok, err := LastValidCheckpoint(bad)
		if err != nil || !ok || ck.Epoch != 2 {
			t.Fatalf("flip second-header byte %d: ok=%v epoch=%d err=%v", i, ok, ck.Epoch, err)
		}
	}
}
