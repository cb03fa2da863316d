package repl

import (
	"bytes"
	"testing"

	"mb2/internal/server"
)

// FuzzShipFrame throws arbitrary bytes at the ship prefix over the shared
// frame decoder (server's FuzzFrame fuzzes the frame layer itself).
// Invariants: DecodeShipFrame never panics, a failure consumes nothing, a
// success consumes in bounds exactly the frame server.DecodeFrame sees, and
// the decoded message re-encodes byte-identically.
func FuzzShipFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendShipFrame(nil, ShipFrame{Type: ShipAppend, Epoch: 3, Offset: 20, Payload: []byte("segment bytes")}))
	f.Add(AppendShipFrame(
		AppendShipFrame(nil, ShipFrame{Type: ShipSnapshot, Epoch: 4, Payload: []byte("ckpt image")}),
		ShipFrame{Type: ShipAck, Epoch: 4, Offset: 132, Payload: []byte{7, 0, 0, 0, 0, 0, 0, 0}},
	))
	f.Add(AppendShipFrame(nil, ShipFrame{Type: ShipAck}))
	f.Add(server.AppendFrame(nil, server.Frame{Type: ShipAck, Payload: []byte("short")}))
	f.Add(server.AppendFrame(nil, server.ErrorFrame(ErrShipShort)))

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, n, err := DecodeShipFrame(data)
		if err != nil {
			if n != 0 {
				t.Fatalf("failed decode consumed %d bytes", n)
			}
			return
		}
		if n < server.HeaderSize+shipPrefixSize || n > len(data) {
			t.Fatalf("consumed %d of %d", n, len(data))
		}
		if _, fn, ferr := server.DecodeFrame(data); ferr != nil || fn != n {
			t.Fatalf("ship decoder consumed %d, frame decoder %d (%v)", n, fn, ferr)
		}
		if rebuilt := AppendShipFrame(nil, msg); !bytes.Equal(rebuilt, data[:n]) {
			t.Fatalf("re-encoding differs: %d vs %d bytes", len(rebuilt), n)
		}
	})
}
