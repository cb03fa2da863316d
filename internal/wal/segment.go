package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

	"mb2/internal/catalog"
	"mb2/internal/storage"
)

// Log-segment and checkpoint-image headers. Both start with an 8-byte magic
// so recovery can tell a real image from garbage, carry the checkpoint epoch
// that pairs a log tail with the snapshot it extends, and are CRC-protected
// so a torn header reads as "empty", not as an error.
var (
	walMagic  = []byte("MB2WAL01")
	ckptMagic = []byte("MB2CKP01")
)

// SegmentHeaderLen is the byte size of a log-segment header:
// magic(8) + epoch(8) + CRC-32C over both (4).
const SegmentHeaderLen = 20

// CheckpointHeaderLen is the byte size of a checkpoint-image header:
// magic(8) + epoch(8) + snapshotTS(8) + payloadLen(4) + payload CRC-32C (4)
// + header CRC-32C over the preceding 32 bytes (4). The header CRC is what
// keeps a torn or bit-flipped header from reading as a phantom checkpoint:
// without it, any 36 bytes starting with the magic whose length/CRC words
// happened to say "empty payload" decoded as a valid checkpoint with
// garbage epoch and snapshot timestamp.
const CheckpointHeaderLen = 36

// appendSegmentHeader appends a log-segment header for the given epoch.
func appendSegmentHeader(dst []byte, epoch uint64) []byte {
	start := len(dst)
	dst = append(dst, walMagic...)
	var scratch [8]byte
	binary.LittleEndian.PutUint64(scratch[:], epoch)
	dst = append(dst, scratch[:]...)
	crc := crc32.Checksum(dst[start:start+16], crcTable)
	binary.LittleEndian.PutUint32(scratch[:4], crc)
	return append(dst, scratch[:4]...)
}

// ParseSegment splits a durable log image into its checkpoint epoch and the
// record-frame region. A torn or corrupt header — the crash happened inside
// the very first flush — yields torn=true with an empty body, which recovery
// treats as "no log survived". Only an image that cannot be a torn MB2 log
// segment at all (wrong magic) is an error: that means the caller handed
// recovery something that was never a log.
func ParseSegment(img []byte) (epoch uint64, body []byte, torn bool, err error) {
	if len(img) == 0 {
		return 0, nil, false, nil
	}
	n := len(img)
	if n < len(walMagic) {
		if bytes.Equal(img, walMagic[:n]) {
			return 0, nil, true, nil
		}
		return 0, nil, false, fmt.Errorf("wal: image is not a log segment (%d bytes, bad magic)", n)
	}
	if !bytes.Equal(img[:len(walMagic)], walMagic) {
		return 0, nil, false, fmt.Errorf("wal: image is not a log segment (bad magic)")
	}
	if n < SegmentHeaderLen {
		return 0, nil, true, nil
	}
	want := binary.LittleEndian.Uint32(img[16:20])
	if crc32.Checksum(img[:16], crcTable) != want {
		return 0, nil, true, nil
	}
	epoch = binary.LittleEndian.Uint64(img[8:16])
	return epoch, img[SegmentHeaderLen:], false, nil
}

// ParseSegmentParts is ParseSegment's header check over the concatenation
// of parts: a log held in pieces (DeserializeParts reads the frames after
// the header). It reads only the header's bytes.
func ParseSegmentParts(parts ...[]byte) (epoch uint64, torn bool, err error) {
	var hdr [SegmentHeaderLen]byte
	epoch, _, torn, err = ParseSegment(hdr[:gatherParts(hdr[:], nil, parts)])
	return epoch, torn, err
}

// Checkpoint is a decoded checkpoint image: a snapshot of all committed rows
// at SnapshotTS, stored as insert records (one per visible row) plus the
// epoch the snapshot starts.
type Checkpoint struct {
	Epoch      uint64
	SnapshotTS uint64
	Records    []Record
}

// CheckpointEncoder is the one checkpoint encoder: it writes an image in a
// single pass into a single buffer — room for the header, each snapshot
// row's insert frame as the snapshot yields it, then the header in place —
// so no record slice is built and no payload is copied. A checkpoint device
// holds one such image, published by an atomic Reset, so recovery decodes
// it or finds none (LastValidCheckpoint, the one decoder).
type CheckpointEncoder struct {
	img   []byte
	start int // where the image starts in img
	rows  int
}

// NewCheckpointEncoder starts an image appended to dst, growing dst once to
// hold a payload of sizeHint bytes (RowFrameLen sizes one row's frame).
func NewCheckpointEncoder(dst []byte, sizeHint int) *CheckpointEncoder {
	start := len(dst)
	dst = slices.Grow(dst, CheckpointHeaderLen+max(sizeHint, 0))
	return &CheckpointEncoder{img: append(dst, make([]byte, CheckpointHeaderLen)...), start: start}
}

// Add appends the insert frame of one snapshot row.
func (e *CheckpointEncoder) Add(tableID int32, row int64, data storage.Tuple) {
	e.img = Record{Type: RecordInsert, TableID: tableID, Row: row, Payload: data}.Serialize(e.img)
	e.rows++
}

// Rows returns how many rows have been added.
func (e *CheckpointEncoder) Rows() int { return e.rows }

// Finish writes the header of the snapshot at snapshotTS that starts epoch
// and returns dst extended by the whole image.
func (e *CheckpointEncoder) Finish(epoch, snapshotTS uint64) []byte {
	hdr := e.img[e.start : e.start+CheckpointHeaderLen]
	payload := e.img[e.start+CheckpointHeaderLen:]
	copy(hdr, ckptMagic)
	binary.LittleEndian.PutUint64(hdr[8:16], epoch)
	binary.LittleEndian.PutUint64(hdr[16:24], snapshotTS)
	binary.LittleEndian.PutUint32(hdr[24:28], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[28:32], crc32.Checksum(payload, crcTable))
	binary.LittleEndian.PutUint32(hdr[32:36], crc32.Checksum(hdr[:32], crcTable))
	return e.img
}

// RowFrameLen is the size of a checkpoint frame for a row of schema whose
// varchars hold their modeled width (catalog.Column.ByteWidth): exact for a
// schema of numbers, an estimate otherwise.
func RowFrameLen(schema catalog.Schema) int {
	n := frameOverhead + recordHeaderLen
	for _, c := range schema.Columns {
		if c.Type == catalog.Varchar {
			n += 1 + 4 + c.ByteWidth()
		} else {
			n += 1 + 8
		}
	}
	return n
}

// CheckpointHeader is what a checkpoint image says about itself before its
// payload is read: enough for a receiver of the image in pieces to know
// which checkpoint it is getting and when it has all of it.
type CheckpointHeader struct {
	Epoch      uint64
	SnapshotTS uint64
	// ImageLen is the byte size of the whole image, header included.
	ImageLen int
}

// ParseCheckpointHeader reads the header at the front of img. ok=false means
// the header is torn or corrupt (fewer than CheckpointHeaderLen bytes, or a
// CRC mismatch); bytes that cannot be the start of a checkpoint image at all
// (wrong magic) are an error.
func ParseCheckpointHeader(img []byte) (h CheckpointHeader, ok bool, err error) {
	if n := min(len(img), len(ckptMagic)); !bytes.Equal(img[:n], ckptMagic[:n]) {
		return h, false, fmt.Errorf("wal: image is not a checkpoint (%d bytes, bad magic)", len(img))
	}
	if len(img) < CheckpointHeaderLen ||
		crc32.Checksum(img[:32], crcTable) != binary.LittleEndian.Uint32(img[32:36]) {
		return h, false, nil
	}
	return CheckpointHeader{
		Epoch:      binary.LittleEndian.Uint64(img[8:16]),
		SnapshotTS: binary.LittleEndian.Uint64(img[16:24]),
		ImageLen:   CheckpointHeaderLen + int(binary.LittleEndian.Uint32(img[24:28])),
	}, true, nil
}

// LastValidCheckpoint decodes the image a checkpoint device holds. The device
// is switched atomically from one whole image to the next, so it holds the
// last checkpoint or nothing; ok=false means no valid checkpoint exists (an
// empty device, or an image that is torn or fails a CRC), and bytes after
// the image are ignored. An image whose first bytes are not a (possibly
// torn) checkpoint header is an error — the device holds something that was
// never a checkpoint.
func LastValidCheckpoint(img []byte) (ck Checkpoint, ok bool, err error) {
	h, ok, err := ParseCheckpointHeader(img)
	if !ok || len(img) < h.ImageLen {
		return ck, false, err
	}
	payload := img[CheckpointHeaderLen:h.ImageLen]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(img[28:32]) {
		return ck, false, nil
	}
	records, derr := Deserialize(payload)
	if derr != nil {
		return ck, false, nil
	}
	return Checkpoint{Epoch: h.Epoch, SnapshotTS: h.SnapshotTS, Records: records}, true, nil
}
