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

// FuzzReplicaChunks is the splitter of TestCursorMatchesWholeSegmentReplay
// with the fuzzer choosing the cuts: byte i of cuts makes chunk i that many
// bytes plus one, the rest of the golden log goes last, and the replica
// applies on every every-th frame. Wherever the cuts fall, the cursor replica
// and the whole-segment reference agree after every chunk and after
// promotion (feedChunks).
func FuzzReplicaChunks(f *testing.F) {
	log := goldenLog(f, 1)
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{6, 11, 0, 255, 40}, uint8(3))
	f.Add(bytes.Repeat([]byte{52}, 80), uint8(0))
	f.Add(bytes.Repeat([]byte{3, 200}, 60), uint8(255))
	f.Fuzz(func(t *testing.T, cuts []byte, every uint8) {
		sizes := make([]int, len(cuts))
		for i, c := range cuts {
			sizes[i] = 1 + int(c)
		}
		feedChunks(t, log, sizes, int(every))
	})
}
