package server

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzFrame throws arbitrary bytes at the wire-frame parsers, mirroring
// FuzzWALDeserialize. Invariants: DecodePrefix never panics, consumed
// stays in bounds, a partial prefix always carries a reason, the
// consumed prefix re-encodes byte-identically, and DecodeFrame and a
// FrameConn reading the bytes as a stream agree frame-for-frame with the
// tolerant walk — the reader stopping for the reason the walk gives.
func FuzzFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFrame(nil, Frame{Type: MsgHello}))
	f.Add(AppendFrame(
		AppendFrame(nil, Frame{Type: MsgQuery, Payload: appendString(nil, "SELECT * FROM kv WHERE k = 7")}),
		Frame{Type: MsgRows, Payload: appendRows(nil, RowsResult{Count: 3, Digest: 0xDEADBEEF})},
	))
	f.Add(AppendFrame(nil, Frame{Type: MsgProcs, Payload: []byte{0, 0, 0, 0}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		frames, consumed, reason := DecodePrefix(data)
		if consumed < 0 || consumed > len(data) {
			t.Fatalf("consumed %d of %d", consumed, len(data))
		}
		if consumed != len(data) && reason == "" {
			t.Fatal("partial prefix must carry a reason")
		}
		if consumed == len(data) && reason != "" {
			t.Fatalf("full consumption with stop reason %q", reason)
		}
		// The strict decoder accepts exactly the frames the tolerant walk
		// consumed, in order.
		rest := data[:consumed]
		for i, want := range frames {
			got, n, err := DecodeFrame(rest)
			if err != nil {
				t.Fatalf("strict decode of consumed frame %d failed: %v", i, err)
			}
			if got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) {
				t.Fatalf("strict/tolerant disagree on frame %d", i)
			}
			rest = rest[n:]
		}
		if len(rest) != 0 {
			t.Fatalf("strict walk left %d bytes of the consumed prefix", len(rest))
		}
		// The stream reader sees the same frames, then stops where the walk
		// stopped: at a clean EOF after a full consumption, on the error the
		// walk names otherwise.
		fc := NewFrameConn(bytes.NewBuffer(data))
		for i, want := range frames {
			got, err := fc.Recv()
			if err != nil {
				t.Fatalf("reader failed on consumed frame %d: %v", i, err)
			}
			if got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) {
				t.Fatalf("reader/tolerant disagree on frame %d", i)
			}
		}
		_, err := fc.Recv()
		switch {
		case reason == "" && err != io.EOF:
			t.Fatalf("reader after the last frame: %v, want io.EOF", err)
		case reason != "" && !stopsFor(err, reason):
			t.Fatalf("reader stopped on %v, the tolerant walk on %q", err, reason)
		}
		// Round trip: re-encoding the parsed frames rebuilds the prefix.
		var rebuilt []byte
		for _, fr := range frames {
			rebuilt = AppendFrame(rebuilt, fr)
		}
		if !bytes.Equal(rebuilt, data[:consumed]) {
			t.Fatalf("re-encoding differs: %d vs %d bytes", len(rebuilt), consumed)
		}
	})
}

// stopsFor reports whether a reader's error is the decode error whose text
// is reason.
func stopsFor(err error, reason string) bool {
	for _, e := range []error{ErrFrameTruncated, ErrFrameMagic, ErrFrameVersion, ErrFrameReserved, ErrFrameTooLarge, ErrFrameCRC} {
		if e.Error() == reason {
			return errors.Is(err, e)
		}
	}
	return false
}
