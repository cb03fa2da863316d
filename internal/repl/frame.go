package repl

import (
	"encoding/binary"
	"errors"
	"io"

	"mb2/internal/server"
)

// A ship message is an ordinary server frame — the wire header, CRC, payload
// cap and decoding errors are the server's — whose payload starts with the
// two fields log shipping cannot live without, so a replica can detect a
// truncation it slept through or a stream that rewound without peeking into
// the body:
//
//	payload 0   epoch   u64 LE WAL segment epoch
//	payload 8   offset  u64 LE byte offset of the body in the segment (or checkpoint) image
//	payload 16  body    raw segment (or checkpoint image) bytes
//
// The frame CRC covers the type and the whole payload: epoch, offset and body.
const (
	shipPrefixSize = 16
	// MaxShipPayload caps one message's body: the server's payload cap
	// less the ship prefix.
	MaxShipPayload = server.MaxPayload - shipPrefixSize
)

// Ship message types, in the range server/proto.go reserves for them.
const (
	// ShipAppend extends the replica's copy of the current segment: the
	// payload is the primary's durable image bytes [Offset, Offset+len).
	ShipAppend = byte(iota + 0x41)
	// ShipSnapshot re-seeds the replica at an epoch boundary: the payload
	// is the bytes [Offset, Offset+len) of the primary's checkpoint-device
	// image, shipped in consecutive frames when it exceeds one. The image's
	// own header gives its length; the replica re-seeds on the last byte.
	ShipSnapshot
	// ShipAck answers every accepted frame: Offset is the byte count the
	// replica now holds of what the frame extended (the segment for an
	// append, the checkpoint image for a snapshot chunk) and the payload is
	// its applied commit count (u64 LE). A rejected frame is answered with
	// server.MsgError instead.
	ShipAck
)

// ShipFrame is one replication message.
type ShipFrame struct {
	Type    byte
	Epoch   uint64
	Offset  uint64
	Payload []byte
}

// ErrShipShort rejects a valid frame too short to hold the ship prefix.
var ErrShipShort = errors.New("repl: frame shorter than the ship prefix")

// AppendShipFrame appends the encoding of f to dst and returns the result.
func AppendShipFrame(dst []byte, f ShipFrame) []byte {
	var pre [shipPrefixSize]byte
	binary.LittleEndian.PutUint64(pre[0:8], f.Epoch)
	binary.LittleEndian.PutUint64(pre[8:16], f.Offset)
	return server.AppendFrameParts(dst, f.Type, pre[:], f.Payload)
}

// shipMessage reads the ship prefix off a decoded frame; the returned payload
// aliases the frame's. A peer's MsgError comes back as the error it relays:
// the primary reads a replica's refusal where it expected the ack.
func shipMessage(f server.Frame) (ShipFrame, error) {
	if err := f.RemoteErr(); err != nil {
		return ShipFrame{}, err
	}
	if len(f.Payload) < shipPrefixSize {
		return ShipFrame{}, ErrShipShort
	}
	return ShipFrame{
		Type:    f.Type,
		Epoch:   binary.LittleEndian.Uint64(f.Payload[0:8]),
		Offset:  binary.LittleEndian.Uint64(f.Payload[8:16]),
		Payload: f.Payload[shipPrefixSize:],
	}, nil
}

// DecodeShipFrame decodes exactly one message from the front of b,
// returning it and the bytes consumed. The returned payload aliases b.
func DecodeShipFrame(b []byte) (ShipFrame, int, error) {
	f, n, err := server.DecodeFrame(b)
	if err != nil {
		return ShipFrame{}, 0, err
	}
	sf, err := shipMessage(f)
	if err != nil {
		return ShipFrame{}, 0, err
	}
	return sf, n, nil
}

// WriteShipFrame writes one message to w, copying its body once.
func WriteShipFrame(w io.Writer, f ShipFrame) error {
	if len(f.Payload) > MaxShipPayload {
		return server.ErrFrameTooLarge
	}
	buf := AppendShipFrame(make([]byte, 0, server.HeaderSize+shipPrefixSize+len(f.Payload)), f)
	_, err := w.Write(buf)
	return err
}

// ReadShipFrame reads one message from r, blocking until a whole frame (or
// an error) arrives. Stream corruption surfaces as the server's decode error.
func ReadShipFrame(r io.Reader) (ShipFrame, error) {
	f, err := server.ReadFrame(r)
	if err != nil {
		return ShipFrame{}, err
	}
	return shipMessage(f)
}
