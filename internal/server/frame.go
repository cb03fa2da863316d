package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Wire framing: every message — client protocol and replication alike —
// travels as one frame.
//
//	offset 0  magic      0xB2
//	offset 1  version    1
//	offset 2  type       message type (proto.go)
//	offset 3  reserved   must be 0
//	offset 4  length     u32 LE payload byte count
//	offset 8  crc        u32 LE CRC-32C over the type byte then payload
//	offset 12 payload
//
// The CRC covers the type byte so a bit flip anywhere in type or payload
// is detected; flips in length surface as either a CRC mismatch or a
// truncated frame. DecodePrefix mirrors the WAL's tolerant parser: it
// consumes the longest valid frame prefix and reports why it stopped,
// so a torn or corrupted stream loses only its tail.
const (
	frameMagic   = 0xB2
	frameVersion = 1
	// HeaderSize is the fixed frame-header byte count.
	HeaderSize = 12
	// MaxPayload caps one frame's payload (16 MiB): a corrupted length
	// field cannot make a reader attempt an absurd allocation.
	MaxPayload = 1 << 24
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Frame is one wire message: a type tag and an opaque payload.
type Frame struct {
	Type    byte
	Payload []byte
}

// frameCRC computes the header CRC: the type byte, then the payload.
func frameCRC(typ byte, payload ...[]byte) uint32 {
	crc := crc32.Update(0, crcTable, []byte{typ})
	for _, p := range payload {
		crc = crc32.Update(crc, crcTable, p)
	}
	return crc
}

// AppendFrame appends the encoding of f to dst and returns the result.
func AppendFrame(dst []byte, f Frame) []byte {
	return AppendFrameParts(dst, f.Type, f.Payload)
}

// AppendFrameParts appends one frame of type typ whose payload is the
// concatenation of parts, each copied once: repl's ship messages put their
// own prefix before a large body without assembling the payload first.
func AppendFrameParts(dst []byte, typ byte, parts ...[]byte) []byte {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	var hdr [HeaderSize]byte
	hdr[0] = frameMagic
	hdr[1] = frameVersion
	hdr[2] = typ
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(n))
	binary.LittleEndian.PutUint32(hdr[8:12], frameCRC(typ, parts...))
	dst = append(dst, hdr[:]...)
	for _, p := range parts {
		dst = append(dst, p...)
	}
	return dst
}

// Frame decoding errors.
var (
	ErrFrameTruncated = errors.New("server: truncated frame")
	ErrFrameMagic     = errors.New("server: bad frame magic")
	ErrFrameVersion   = errors.New("server: unsupported frame version")
	ErrFrameReserved  = errors.New("server: nonzero reserved frame byte")
	ErrFrameTooLarge  = errors.New("server: frame payload exceeds cap")
	ErrFrameCRC       = errors.New("server: frame CRC mismatch")
)

// checkHeader validates a frame header — everything a reader can check
// before it has (or allocates for) the payload — and returns the payload
// byte count.
func checkHeader(hdr []byte) (int, error) {
	switch {
	case hdr[0] != frameMagic:
		return 0, ErrFrameMagic
	case hdr[1] != frameVersion:
		return 0, ErrFrameVersion
	case hdr[3] != 0:
		return 0, ErrFrameReserved
	}
	n := binary.LittleEndian.Uint32(hdr[4:8])
	if n > MaxPayload {
		return 0, ErrFrameTooLarge
	}
	return int(n), nil
}

// DecodeFrame decodes exactly one frame from the front of b, returning
// it and the bytes consumed. The returned payload aliases b.
func DecodeFrame(b []byte) (Frame, int, error) {
	if len(b) < HeaderSize {
		return Frame{}, 0, ErrFrameTruncated
	}
	n, err := checkHeader(b)
	if err != nil {
		return Frame{}, 0, err
	}
	total := HeaderSize + n
	if len(b) < total {
		return Frame{}, 0, ErrFrameTruncated
	}
	payload := b[HeaderSize:total]
	if frameCRC(b[2], payload) != binary.LittleEndian.Uint32(b[8:12]) {
		return Frame{}, 0, ErrFrameCRC
	}
	return Frame{Type: b[2], Payload: payload}, total, nil
}

// DecodePrefix parses the longest valid frame prefix of b: the tolerant
// parser. It returns the decoded frames, the bytes consumed, and — when
// it stopped early — the reason. Invariants (pinned by FuzzFrame): it
// never panics, the consumed prefix re-encodes byte-identically, and a
// fully consumed input round-trips frame for frame.
func DecodePrefix(b []byte) ([]Frame, int, string) {
	var frames []Frame
	consumed := 0
	for consumed < len(b) {
		f, n, err := DecodeFrame(b[consumed:])
		if err != nil {
			return frames, consumed, err.Error()
		}
		frames = append(frames, f)
		consumed += n
	}
	return frames, consumed, ""
}

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, f Frame) error {
	if len(f.Payload) > MaxPayload {
		return ErrFrameTooLarge
	}
	buf := AppendFrame(make([]byte, 0, HeaderSize+len(f.Payload)), f)
	_, err := w.Write(buf)
	return err
}

// ReadFrame reads one frame from r, blocking until a whole frame (or an
// error) arrives. A stream that ends between frames is a clean io.EOF, one
// that ends inside a frame — header or payload — is ErrFrameTruncated, and
// corruption surfaces as the decode error.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("%w: %w", ErrFrameTruncated, err)
		}
		return Frame{}, err
	}
	n, err := checkHeader(hdr[:])
	if err != nil {
		return Frame{}, err
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, fmt.Errorf("%w: %w", ErrFrameTruncated, err)
	}
	if frameCRC(hdr[2], payload) != binary.LittleEndian.Uint32(hdr[8:12]) {
		return Frame{}, ErrFrameCRC
	}
	return Frame{Type: hdr[2], Payload: payload}, nil
}
