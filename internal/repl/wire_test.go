package repl

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"

	"mb2/internal/engine"
	"mb2/internal/server"
)

// flushKV commits n more kv rows on db and makes them durable.
func flushKV(t *testing.T, db *engine.DB, n int) {
	t.Helper()
	base := int64(db.Txns.LastCommitTS())
	for i := int64(0); i < int64(n); i++ {
		if err := commitKV(db, base+i, i); err != nil {
			t.Fatal(err)
		}
	}
	db.WAL.Serialize(nil)
	if _, err := db.WAL.Flush(nil); err != nil {
		t.Fatal(err)
	}
}

// A frame the replica rejects is answered over the wire — one server
// MsgError carrying the replica's own message — on the pipe and on TCP
// alike, and the primary's Sync reports that message. Each row sends the
// offending frame raw on the ship connection, then drives Sync into the same
// refusal.
func TestReplicaRejectionsTravelTheWire(t *testing.T) {
	rows := []struct {
		name string
		// arrange may disturb the group; it returns the raw frame to send.
		arrange func(t *testing.T, db *engine.DB, grp *Group) ShipFrame
		// resync steers the group's next Sync into the same refusal.
		resync func(t *testing.T, db *engine.DB, grp *Group)
		want   string
		// keepsState: the replica's status is the same after the refusal.
		keepsState bool
	}{
		{
			name: "append at the wrong offset",
			arrange: func(t *testing.T, db *engine.DB, grp *Group) ShipFrame {
				return ShipFrame{Type: ShipAppend, Epoch: db.WAL.Epoch(), Offset: uint64(grp.sentBytes[0]) + 5, Payload: []byte("x")}
			},
			resync: func(t *testing.T, db *engine.DB, grp *Group) {
				grp.sentBytes[0]-- // re-ship a byte the replica already has
			},
			want:       "but append starts at",
			keepsState: true,
		},
		{
			name: "append for an epoch with no snapshot",
			arrange: func(t *testing.T, db *engine.DB, grp *Group) ShipFrame {
				return ShipFrame{Type: ShipAppend, Epoch: db.WAL.Epoch() + 1, Payload: []byte("x")}
			},
			resync: func(t *testing.T, db *engine.DB, grp *Group) {
				if _, err := db.Checkpoint(nil); err != nil {
					t.Fatal(err)
				}
				flushKV(t, db, 2)
				grp.sentEpoch[0], grp.sentBytes[0] = db.WAL.Epoch(), 0 // skip the snapshot
			},
			want:       "without a snapshot",
			keepsState: true,
		},
		{
			name: "any frame after Promote",
			arrange: func(t *testing.T, db *engine.DB, grp *Group) ShipFrame {
				if _, err := grp.Replicas()[0].Promote(); err != nil {
					t.Fatal(err)
				}
				return ShipFrame{Type: ShipAppend, Epoch: db.WAL.Epoch(), Offset: uint64(grp.sentBytes[0]), Payload: []byte("x")}
			},
			resync: func(t *testing.T, db *engine.DB, grp *Group) { flushKV(t, db, 2) },
			want:   "already promoted",
		},
	}
	transports := []struct {
		name string
		new  func() server.Transport
	}{
		{"pipe", func() server.Transport { return server.NewPipe() }},
		{"tcp", func() server.Transport { return server.NewTCP("127.0.0.1:0") }},
	}
	for _, tr := range transports {
		for _, row := range rows {
			t.Run(tr.name+"/"+row.name, func(t *testing.T) {
				db, grp := shipRun(t, func(db *engine.DB) *Group {
					g, err := NewGroup(db, kvFactory, tr.new(), GroupConfig{Replicas: 1})
					if err != nil {
						t.Fatal(err)
					}
					return g
				}, 6, 2, 0)
				defer grp.Close()

				bad := row.arrange(t, db, grp)
				before := grp.Status()[0]
				if err := WriteShipFrame(grp.conns[0], bad); err != nil {
					t.Fatal(err)
				}
				reply, err := server.ReadFrame(grp.conns[0])
				if err != nil {
					t.Fatalf("no answer to the rejected frame: %v", err)
				}
				var re *server.RemoteError
				if reply.Type != server.MsgError || !errors.As(reply.RemoteErr(), &re) || !strings.Contains(re.Msg, row.want) {
					t.Fatalf("rejected frame answered by type %#x %v, want MsgError containing %q",
						reply.Type, reply.RemoteErr(), row.want)
				}
				if after := grp.Status()[0]; row.keepsState && after != before {
					t.Fatalf("refusal changed the replica:\nbefore %+v\nafter  %+v", before, after)
				}

				row.resync(t, db, grp)
				if err := grp.Sync(); err == nil || !strings.Contains(err.Error(), row.want) {
					t.Fatalf("Sync = %v, want an error containing %q", err, row.want)
				}
			})
		}
	}
}

// A client-protocol frame that strays onto a ship connection is refused with
// MsgError — whether or not its payload could hold a ship prefix — changes
// nothing on the replica, and leaves the connection shipping.
func TestReplicaRefusesClientFrames(t *testing.T) {
	db, grp := shipRun(t, func(db *engine.DB) *Group {
		g, err := NewGroup(db, kvFactory, server.NewPipe(), GroupConfig{Replicas: 1})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}, 6, 2, 0)
	defer grp.Close()

	before := grp.Status()[0]
	for _, tc := range []struct {
		payload, want string
	}{
		{"SELECT 1", ErrShipShort.Error()},
		{"SELECT * FROM kv WHERE k = 1", "unexpected frame type 3"},
	} {
		// The replica never reads a query payload, only its length matters.
		query := server.Frame{Type: server.MsgQuery, Payload: []byte(tc.payload)}
		if err := server.WriteFrame(grp.conns[0], query); err != nil {
			t.Fatal(err)
		}
		reply, err := server.ReadFrame(grp.conns[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := reply.RemoteErr(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("MsgQuery %q answered by type %#x %v, want MsgError containing %q", tc.payload, reply.Type, err, tc.want)
		}
	}
	if after := grp.Status()[0]; after != before {
		t.Fatalf("a client frame changed the replica:\nbefore %+v\nafter  %+v", before, after)
	}
	flushKV(t, db, 2)
	if err := grp.Sync(); err != nil {
		t.Fatalf("ship connection unusable after the refusals: %v", err)
	}
	if st := grp.Status()[0]; st.ReceivedCommits != db.Txns.LastCommitTS() {
		t.Fatalf("replica received %d commits, want %d", st.ReceivedCommits, db.Txns.LastCommitTS())
	}
}

// An ack whose payload is not the 8-byte commit count is an error naming the
// replica and the length, not a silently stale AckedCommits entry.
func TestGroupRejectsMalformedAck(t *testing.T) {
	for _, payload := range [][]byte{nil, make([]byte, 9)} {
		db, err := kvFactory()
		if err != nil {
			t.Fatal(err)
		}
		flushKV(t, db, 3)
		primary, follower := net.Pipe()
		grp := &Group{
			db:         db,
			cfg:        GroupConfig{Replicas: 1},
			replicas:   make([]*Replica, 1),
			conns:      []server.Conn{primary},
			sentEpoch:  []uint64{db.WAL.Epoch()},
			sentBytes:  []int{0},
			ackCommits: []uint64{0},
		}
		go func() {
			defer follower.Close()
			f, err := ReadShipFrame(follower)
			if err != nil {
				return
			}
			WriteShipFrame(follower, ShipFrame{
				Type: ShipAck, Epoch: f.Epoch, Offset: f.Offset + uint64(len(f.Payload)), Payload: payload,
			})
		}()
		err = grp.Sync()
		primary.Close()
		length := fmt.Sprintf("%d-byte", len(payload))
		if err == nil || !strings.Contains(err.Error(), "replica 0") || !strings.Contains(err.Error(), length) {
			t.Fatalf("Sync = %v, want an error naming replica 0 and its %s ack payload", err, length)
		}
	}
}
