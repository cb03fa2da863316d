package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
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

// Checkpoint is a decoded checkpoint image: a snapshot of all committed rows
// at SnapshotTS, stored as insert records (one per visible row) plus the
// epoch the snapshot starts.
type Checkpoint struct {
	Epoch      uint64
	SnapshotTS uint64
	Records    []Record
}

// AppendCheckpointImage appends the encoded checkpoint to dst. A checkpoint
// device holds one such image, published by an atomic Reset, so recovery
// decodes it or finds none (LastValidCheckpoint).
func AppendCheckpointImage(dst []byte, ck Checkpoint) []byte {
	var payload []byte
	for _, r := range ck.Records {
		payload = r.Serialize(payload)
	}
	start := len(dst)
	dst = append(dst, ckptMagic...)
	var scratch [8]byte
	binary.LittleEndian.PutUint64(scratch[:], ck.Epoch)
	dst = append(dst, scratch[:]...)
	binary.LittleEndian.PutUint64(scratch[:], ck.SnapshotTS)
	dst = append(dst, scratch[:]...)
	binary.LittleEndian.PutUint32(scratch[:4], uint32(len(payload)))
	dst = append(dst, scratch[:4]...)
	binary.LittleEndian.PutUint32(scratch[:4], crc32.Checksum(payload, crcTable))
	dst = append(dst, scratch[:4]...)
	binary.LittleEndian.PutUint32(scratch[:4], crc32.Checksum(dst[start:start+32], crcTable))
	dst = append(dst, scratch[:4]...)
	return append(dst, payload...)
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
