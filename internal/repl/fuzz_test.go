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
// the decoded message re-encodes byte-identically — by AppendShipFrame, and
// by sendShip with the body cut into a head and parts where cuts say (the
// send a Sync makes from a log device's chunks).
func FuzzShipFrame(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add(AppendShipFrame(nil, ShipFrame{Type: ShipAppend, Epoch: 3, Offset: 20, Payload: []byte("segment bytes")}), []byte{0, 4, 0, 1})
	f.Add(AppendShipFrame(
		AppendShipFrame(nil, ShipFrame{Type: ShipSnapshot, Epoch: 4, Payload: []byte("ckpt image")}),
		ShipFrame{Type: ShipAck, Epoch: 4, Offset: 132, Payload: []byte{7, 0, 0, 0, 0, 0, 0, 0}},
	), []byte{3})
	f.Add(AppendShipFrame(nil, ShipFrame{Type: ShipAck}), []byte{9, 9})
	f.Add(server.AppendFrame(nil, server.Frame{Type: ShipAck, Payload: []byte("short")}), []byte{})
	f.Add(server.AppendFrame(nil, server.ErrorFrame(ErrShipShort)), []byte{1})

	f.Fuzz(func(t *testing.T, data, cuts []byte) {
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
		head, rest := cutBody(msg.Payload, cuts)
		var w bytes.Buffer
		if err := sendShip(server.NewFrameConn(&w), ShipFrame{Type: msg.Type, Epoch: msg.Epoch, Offset: msg.Offset, Payload: head}, rest...); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w.Bytes(), data[:n]) {
			t.Fatalf("sent as a %d-byte head and %d parts, the frame differs", len(head), len(rest))
		}
	})
}

// cutBody splits body where cuts say: the first cut is the head's length,
// each later one the next part's, and what the cuts leave over is the last
// part (parts may be empty).
func cutBody(body, cuts []byte) (head []byte, rest [][]byte) {
	if len(cuts) == 0 {
		return body, nil
	}
	for i, c := range cuts {
		k := min(int(c), len(body))
		if i == 0 {
			head = body[:k]
		} else {
			rest = append(rest, body[:k])
		}
		body = body[k:]
	}
	return head, append(rest, body)
}

// FuzzReplicaChunks is the splitter of TestCursorMatchesWholeSegmentReplay
// with the fuzzer choosing the cuts and the tail's chunk size: byte i of
// cuts makes frame i that many bytes plus one, the rest of the golden log
// goes last, the replica applies on every every-th frame, and a nonzero
// chunk cuts its tail into chunks of that many bytes (zero keeps
// tailChunk). Wherever the cuts fall, the cursor replica and the
// whole-segment reference agree after every frame and after promotion
// (feedChunks).
func FuzzReplicaChunks(f *testing.F) {
	log := goldenLog(f, 1)
	f.Add([]byte{}, uint8(1), uint8(0))
	f.Add([]byte{6, 11, 0, 255, 40}, uint8(3), uint8(13))
	f.Add(bytes.Repeat([]byte{52}, 80), uint8(0), uint8(1))
	f.Add(bytes.Repeat([]byte{3, 200}, 60), uint8(255), uint8(97))
	f.Fuzz(func(t *testing.T, cuts []byte, every, chunk uint8) {
		sizes := make([]int, len(cuts))
		for i, c := range cuts {
			sizes[i] = 1 + int(c)
		}
		n := tailChunk
		if chunk > 0 {
			n = int(chunk)
		}
		withTailChunk(n, func() { feedChunks(t, log, sizes, int(every)) })
	})
}
