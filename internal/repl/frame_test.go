package repl

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"mb2/internal/server"
)

func TestShipFrameRoundTrip(t *testing.T) {
	frames := []ShipFrame{
		{Type: ShipAppend, Epoch: 0, Offset: 0, Payload: []byte("wal2")},
		{Type: ShipAppend, Epoch: 7, Offset: 1 << 33, Payload: bytes.Repeat([]byte{0xAB}, 300)},
		{Type: ShipSnapshot, Epoch: 8, Offset: 0, Payload: []byte("checkpoint image")},
		{Type: ShipAck, Epoch: 8, Offset: 42, Payload: []byte{9, 0, 0, 0, 0, 0, 0, 0}},
		{Type: ShipAck},
	}
	var stream []byte
	for _, f := range frames {
		before := len(stream)
		stream = AppendShipFrame(stream, f)
		// The server header plus the ship prefix: 28 bytes around the body.
		if got, want := len(stream)-before, 28+len(f.Payload); got != want {
			t.Fatalf("frame with a %d-byte body takes %d wire bytes, want %d", len(f.Payload), got, want)
		}
	}

	// Strict walk.
	rest := stream
	for i, want := range frames {
		got, n, err := DecodeShipFrame(rest)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type || got.Epoch != want.Epoch ||
			got.Offset != want.Offset || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d round trip: got %+v want %+v", i, got, want)
		}
		// The decoded body aliases the input: nothing was copied.
		if len(got.Payload) > 0 && &got.Payload[0] != &rest[n-len(got.Payload)] {
			t.Fatalf("frame %d: decoded payload does not alias the input", i)
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left after strict walk", len(rest))
	}

	// The stream is a stream of ordinary server frames: the shared
	// tolerant walk consumes all of it without a stop reason.
	parsed, consumed, reason := server.DecodePrefix(stream)
	if consumed != len(stream) || reason != "" || len(parsed) != len(frames) {
		t.Fatalf("prefix: %d frames, %d/%d bytes, reason %q",
			len(parsed), consumed, len(stream), reason)
	}

	// io round trip.
	var buf bytes.Buffer
	fc := server.NewFrameConn(&buf)
	for _, f := range frames {
		if err := sendShip(fc, f); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(buf.Bytes(), stream) {
		t.Fatal("sendShip and AppendShipFrame disagree on the wire bytes")
	}
	for i, want := range frames {
		got, err := recvShip(fc)
		if err != nil {
			t.Fatalf("read frame %d: %v", i, err)
		}
		if got.Type != want.Type || got.Epoch != want.Epoch ||
			got.Offset != want.Offset || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("io frame %d: got %+v want %+v", i, got, want)
		}
	}
	if _, err := recvShip(fc); err != io.EOF {
		t.Fatalf("drained stream: err = %v, want io.EOF", err)
	}
}

// Every corruption a wire can inflict maps to its specific sentinel — the
// server's, since the server's decoder is the only one — and a bit flip
// anywhere in the semantic fields is caught by the CRC.
func TestShipFrameCorruption(t *testing.T) {
	base := AppendShipFrame(nil, ShipFrame{Type: ShipAppend, Epoch: 5, Offset: 99, Payload: []byte("payload")})
	const epochAt, offsetAt, bodyAt = server.HeaderSize, server.HeaderSize + 8, server.HeaderSize + 16

	mut := func(i int, b byte) []byte {
		c := append([]byte(nil), base...)
		c[i] = b
		return c
	}
	cases := []struct {
		name string
		buf  []byte
		want error
	}{
		{"short header", base[:server.HeaderSize-1], server.ErrFrameTruncated},
		{"short prefix", base[:bodyAt-1], server.ErrFrameTruncated},
		{"short payload", base[:len(base)-1], server.ErrFrameTruncated},
		{"bad magic", mut(0, 0xB5), server.ErrFrameMagic},
		{"bad version", mut(1, 9), server.ErrFrameVersion},
		{"reserved set", mut(3, 1), server.ErrFrameReserved},
		{"type flip", mut(2, ShipAck), server.ErrFrameCRC},
		{"epoch flip", mut(epochAt, 0xFF), server.ErrFrameCRC},
		{"offset flip", mut(offsetAt+1, 0xFF), server.ErrFrameCRC},
		{"payload flip", mut(bodyAt, 'X'), server.ErrFrameCRC},
		{"crc flip", mut(8, base[8]^0x01), server.ErrFrameCRC},
		// A corrupt length field surfaces as too-large, before any allocation.
		{"oversize length", mut(7, 0xFF), server.ErrFrameTooLarge},
		// A valid frame that cannot hold the ship prefix is not a ship message.
		{"valid frame shorter than the prefix",
			server.AppendFrame(nil, server.Frame{Type: ShipAck, Payload: make([]byte, shipPrefixSize-1)}), ErrShipShort},
	}
	for _, tc := range cases {
		if _, n, err := DecodeShipFrame(tc.buf); !errors.Is(err, tc.want) || n != 0 {
			t.Errorf("%s: decoder consumed %d, err = %v, want %v", tc.name, n, err, tc.want)
		}
		if _, err := recvShip(server.NewFrameConn(bytes.NewBuffer(tc.buf))); !errors.Is(err, tc.want) {
			t.Errorf("%s: reader err = %v, want %v", tc.name, err, tc.want)
		}
	}

	// A body over the cap is refused before anything is written.
	var w bytes.Buffer
	if err := sendShip(server.NewFrameConn(&w), ShipFrame{Type: ShipSnapshot, Payload: make([]byte, MaxShipPayload+1)}); !errors.Is(err, server.ErrFrameTooLarge) || w.Len() != 0 {
		t.Fatalf("oversize body: err = %v, %d bytes written", err, w.Len())
	}
}
