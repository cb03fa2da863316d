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
//
// A live connection reads and writes its frames through one FrameConn, the
// only code in this package and internal/repl that touches a connection's
// bytes: it owns a read and a write buffer, a received payload aliases the
// read buffer until the next receive, and a buffer a frame grew past keepBuf
// is dropped with that frame. A payload that already lies in memory — a log
// shipper's device chunks — is sent in parts behind the write buffer's head,
// copied nowhere.
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

// frameCRC computes the header CRC of the frame whose header is hdr: the
// header's own type byte, then the payload.
func frameCRC(hdr, payload []byte) uint32 {
	return crc32.Update(crc32.Update(0, crcTable, hdr[2:3]), crcTable, payload)
}

// SealFrame writes the header of frame — HeaderSize bytes of room followed
// by the payload, or by its head when body holds the rest — as a frame of
// type typ whose payload is frame's bytes past the header, then body's parts
// in order. Encoders append the room
// (append(dst, make([]byte, HeaderSize)...)), then the payload, then seal,
// so a payload is built in place and copied nowhere.
func SealFrame(frame []byte, typ byte, body ...[]byte) {
	frame[0], frame[1], frame[2], frame[3] = frameMagic, frameVersion, typ, 0
	n, crc := len(frame)-HeaderSize, frameCRC(frame, frame[HeaderSize:])
	for _, p := range body {
		n += len(p)
		crc = crc32.Update(crc, crcTable, p)
	}
	binary.LittleEndian.PutUint32(frame[4:8], uint32(n))
	binary.LittleEndian.PutUint32(frame[8:12], crc)
}

// AppendFrame appends the encoding of f to dst and returns the result.
func AppendFrame(dst []byte, f Frame) []byte {
	start := len(dst)
	dst = append(append(dst, make([]byte, HeaderSize)...), f.Payload...)
	SealFrame(dst[start:], f.Type)
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
	if frameCRC(b, payload) != binary.LittleEndian.Uint32(b[8:12]) {
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

// keepBuf caps the buffers a FrameConn keeps from frame to frame. A larger
// frame — a checkpoint snapshot, a bulk INSERT — gets a buffer of its own
// that is dropped with the frame, so one big message never stays pinned to a
// long-lived connection.
const keepBuf = 64 << 10

// firstBuf is the capacity a FrameConn's buffers start at: a point
// statement, its reply and a replication ack all fit.
const firstBuf = 512

// FrameConn reads and writes one connection's frames through two buffers it
// owns, so a request/response exchange allocates nothing for its framing,
// and a payload that already lies in memory is written from where it lies
// (End's body parts), so shipping it copies nothing either.
// A payload Recv returns lives in the read buffer: it is valid until the next
// Recv, and a caller that keeps any of it copies it out. One goroutine may
// receive while another sends, but neither method may run on two at once.
type FrameConn struct {
	rw   io.ReadWriter
	hdr  [HeaderSize]byte
	rbuf []byte
	wbuf []byte
}

// NewFrameConn returns the frame reader and writer of one connection.
func NewFrameConn(rw io.ReadWriter) *FrameConn { return &FrameConn{rw: rw} }

// Recv reads one frame, blocking until a whole frame (or an error) arrives.
// A stream that ends between frames is a clean io.EOF, one that ends inside
// a frame — header or payload — is ErrFrameTruncated, and corruption
// surfaces as the decode error.
func (c *FrameConn) Recv() (Frame, error) {
	if _, err := io.ReadFull(c.rw, c.hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("%w: %w", ErrFrameTruncated, err)
		}
		return Frame{}, err
	}
	n, err := checkHeader(c.hdr[:])
	if err != nil {
		return Frame{}, err
	}
	payload := c.rbuf
	if n > cap(payload) {
		payload = make([]byte, n, max(n, firstBuf))
		if cap(payload) <= keepBuf {
			c.rbuf = payload
		}
	}
	payload = payload[:n]
	if _, err := io.ReadFull(c.rw, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, fmt.Errorf("%w: %w", ErrFrameTruncated, err)
	}
	if frameCRC(c.hdr[:], payload) != binary.LittleEndian.Uint32(c.hdr[8:12]) {
		return Frame{}, ErrFrameCRC
	}
	return Frame{Type: c.hdr[2], Payload: payload}, nil
}

// Begin starts the next outgoing frame in the write buffer: append the
// payload to what it returns and hand the result to End.
func (c *FrameConn) Begin() []byte {
	if c.wbuf == nil {
		c.wbuf = make([]byte, 0, firstBuf)
	}
	return append(c.wbuf[:0], make([]byte, HeaderSize)...)
}

// End seals frame — a Begin buffer with the payload appended, or its head
// when body holds the rest — as a frame of type typ (SealFrame) and writes
// it: the buffer, then each part of body where it lies, so a payload part
// already in memory is copied nowhere. The bytes on the wire are those of
// the whole payload in one buffer. A payload over MaxPayload is refused
// unwritten.
func (c *FrameConn) End(typ byte, frame []byte, body ...[]byte) error {
	n := len(frame) - HeaderSize
	for _, p := range body {
		n += len(p)
	}
	if n > MaxPayload {
		return ErrFrameTooLarge
	}
	SealFrame(frame, typ, body...)
	if cap(frame) <= keepBuf {
		c.wbuf = frame[:0]
	}
	if _, err := c.rw.Write(frame); err != nil {
		return err
	}
	for _, p := range body {
		if len(p) == 0 {
			continue
		}
		if _, err := c.rw.Write(p); err != nil {
			return err
		}
	}
	return nil
}

// Send writes one frame whose payload is already encoded.
func (c *FrameConn) Send(f Frame) error {
	if len(f.Payload) > MaxPayload {
		return ErrFrameTooLarge
	}
	return c.End(f.Type, append(c.Begin(), f.Payload...))
}
