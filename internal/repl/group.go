package repl

import (
	"encoding/binary"
	"fmt"
	"sync"

	"mb2/internal/engine"
	"mb2/internal/server"
)

// GroupConfig configures a replication group.
type GroupConfig struct {
	// Replicas is the follower count (at least 1).
	Replicas int
	// Cadence[i] ships to replica i only on every Nth Sync (missing or
	// <=1 means every Sync): the network-staleness knob. A lagging
	// cadence leaves the replica whole segments behind between ships.
	Cadence []int
	// ApplyEvery[i] is replica i's lazy-apply batch (ReplicaConfig).
	ApplyEvery []int
}

func (c GroupConfig) cadence(i int) int {
	if i < len(c.Cadence) && c.Cadence[i] > 1 {
		return c.Cadence[i]
	}
	return 1
}

func (c GroupConfig) applyEvery(i int) int {
	if i < len(c.ApplyEvery) {
		return c.ApplyEvery[i]
	}
	return 1
}

// Group wires a primary engine to its replicas over a server.Transport and
// ships the primary's durable log in lockstep: one frame, one ack, replicas
// in ascending ID order. Over the in-process pipe transport the whole
// exchange is deterministic — same primary writes, same shipped bytes, same
// replica state, bit for bit — which is what the failover drills replay.
type Group struct {
	db  *engine.DB
	cfg GroupConfig
	ln  server.Listener

	replicas   []*Replica
	conns      []server.Conn
	sentEpoch  []uint64
	sentBytes  []int
	ackCommits []uint64
	syncs      int
	closed     bool
	wg         sync.WaitGroup
}

// NewGroup stands up n replicas from factory behind tr and connects the
// primary to each. Dial/accept runs serially per replica, so replica IDs,
// connection order, and therefore every subsequent ship are deterministic.
func NewGroup(db *engine.DB, factory DBFactory, tr server.Transport, cfg GroupConfig) (*Group, error) {
	if cfg.Replicas < 1 {
		return nil, fmt.Errorf("repl: group needs at least one replica, got %d", cfg.Replicas)
	}
	ln, err := tr.Listen()
	if err != nil {
		return nil, err
	}
	g := &Group{
		db:         db,
		cfg:        cfg,
		ln:         ln,
		sentEpoch:  make([]uint64, cfg.Replicas),
		sentBytes:  make([]int, cfg.Replicas),
		ackCommits: make([]uint64, cfg.Replicas),
	}
	for i := 0; i < cfg.Replicas; i++ {
		rep, err := NewReplica(i, factory, ReplicaConfig{ApplyEvery: cfg.applyEvery(i)})
		if err != nil {
			g.Close()
			return nil, err
		}
		// Accept concurrently with Dial: the pipe transport hands the
		// server side over synchronously inside Dial.
		type accepted struct {
			c   server.Conn
			err error
		}
		ch := make(chan accepted, 1)
		go func() {
			c, err := ln.Accept()
			ch <- accepted{c, err}
		}()
		pc, err := tr.Dial()
		if err != nil {
			g.Close()
			return nil, err
		}
		ac := <-ch
		if ac.err != nil {
			pc.Close()
			g.Close()
			return nil, ac.err
		}
		g.replicas = append(g.replicas, rep)
		g.conns = append(g.conns, pc)
		g.wg.Add(1)
		go func(rep *Replica, c server.Conn) {
			defer g.wg.Done()
			serveReplica(rep, c)
		}(rep, ac.c)
	}
	return g, nil
}

// serveReplica is the follower's receive loop: every frame read gets exactly
// one answer, the ack or — for a frame the replica rejects — the server's
// MsgError carrying the reason, so the primary learns the cause over the
// wire. A transport or framing error (the primary closed the group, the
// stream is corrupt) ends the loop.
func serveReplica(r *Replica, c server.Conn) {
	defer c.Close()
	for {
		req, err := server.ReadFrame(c)
		if err != nil {
			return
		}
		var ack ShipFrame
		f, err := shipMessage(req)
		if err == nil {
			ack, err = r.HandleFrame(f)
		}
		if err != nil {
			err = server.WriteFrame(c, server.ErrorFrame(err))
		} else {
			err = WriteShipFrame(c, ack)
		}
		if err != nil {
			return
		}
	}
}

// Replicas returns the group's followers in ID order.
func (g *Group) Replicas() []*Replica { return g.replicas }

// Sync ships the primary's current durable state to every replica whose
// cadence is due: the checkpoint image first when the primary's epoch moved
// (checkpoint truncation), then the unsent suffix of the durable segment.
// The epoch and the suffix come from one locked read of the log
// (wal.Manager.DurableSince), which returns only the suffix: a sync costs
// what is new, however long the log. Each frame blocks for its ack, and acks
// are validated against the bytes shipped, so a lost or reordered frame
// cannot go unnoticed. Call it after every primary log flush.
func (g *Group) Sync() error {
	g.syncs++
	for i := range g.replicas {
		if g.syncs%g.cfg.cadence(i) != 0 {
			continue
		}
		epoch, unsent := g.db.WAL.DurableSince(g.sentEpoch[i], g.sentBytes[i])
		if g.sentEpoch[i] != epoch {
			if err := g.shipSnapshot(i, epoch); err != nil {
				return err
			}
			g.sentEpoch[i] = epoch
			g.sentBytes[i] = 0
		}
		if len(unsent) > 0 {
			app := ShipFrame{
				Type:    ShipAppend,
				Epoch:   epoch,
				Offset:  uint64(g.sentBytes[i]),
				Payload: unsent,
			}
			if err := g.exchange(i, app); err != nil {
				return err
			}
			g.sentBytes[i] += len(unsent)
		}
	}
	return nil
}

// snapshotChunk is the most checkpoint-image bytes one ShipSnapshot frame
// carries.
var snapshotChunk = MaxShipPayload

// shipSnapshot ships the primary's checkpoint image to replica i as
// consecutive ShipSnapshot frames, each at its offset in the image. The
// image is read after the epoch; should a checkpoint land between the two
// reads, the replica finds the newer epoch in the image header and refuses
// the transfer, and the next Sync ships that epoch whole.
func (g *Group) shipSnapshot(i int, epoch uint64) error {
	img := g.db.CheckpointImage()
	for off := 0; off < len(img); off += snapshotChunk {
		chunk := ShipFrame{
			Type:    ShipSnapshot,
			Epoch:   epoch,
			Offset:  uint64(off),
			Payload: img[off:min(off+snapshotChunk, len(img))],
		}
		if err := g.exchange(i, chunk); err != nil {
			return err
		}
	}
	return nil
}

// exchange ships one frame and validates its ack. A replica that rejected
// the frame answered MsgError, which ReadShipFrame returns as the error.
func (g *Group) exchange(i int, f ShipFrame) error {
	if err := WriteShipFrame(g.conns[i], f); err != nil {
		return fmt.Errorf("repl: shipping to replica %d: %w", i, err)
	}
	ack, err := ReadShipFrame(g.conns[i])
	if err != nil {
		return fmt.Errorf("repl: shipping to replica %d: %w", i, err)
	}
	if ack.Type != ShipAck || ack.Epoch != f.Epoch {
		return fmt.Errorf("repl: replica %d acked type %d epoch %d for epoch %d",
			i, ack.Type, ack.Epoch, f.Epoch)
	}
	if want := f.Offset + uint64(len(f.Payload)); ack.Offset != want {
		return fmt.Errorf("repl: replica %d acked %d received bytes, want %d", i, ack.Offset, want)
	}
	if len(ack.Payload) != 8 {
		return fmt.Errorf("repl: replica %d acked with a %d-byte payload, want its 8-byte commit count",
			i, len(ack.Payload))
	}
	g.ackCommits[i] = binary.LittleEndian.Uint64(ack.Payload)
	return nil
}

// AckedCommits returns the last acked applied-commit count per replica: the
// primary's own view of replica staleness, without touching replica state.
func (g *Group) AckedCommits() []uint64 {
	return append([]uint64(nil), g.ackCommits...)
}

// Status snapshots every replica's staleness in ID order.
func (g *Group) Status() []Status {
	out := make([]Status, len(g.replicas))
	for i, rep := range g.replicas {
		out[i] = rep.Status()
	}
	return out
}

// Close tears down the ship connections and waits for the follower loops to
// drain. The replicas stay alive — promotion happens after Close.
func (g *Group) Close() error {
	if g.closed {
		return nil
	}
	g.closed = true
	for _, c := range g.conns {
		c.Close()
	}
	err := g.ln.Close()
	g.wg.Wait()
	return err
}
