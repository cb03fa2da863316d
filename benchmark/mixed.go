package main

import (
	"fmt"
	"time"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/hw"
	"mb2/internal/repl"
	"mb2/internal/server"
	"mb2/internal/storage"
)

// mixed_rw: frozen full-size counts.
const (
	mixedRows     = 170_000 // orders rows, loaded over the wire
	mixedRoundOps = 80_000  // statements per round, both connections together
	// mixedGroup is how many consecutive orders share one cust value: the
	// row count of one cust lookup.
	mixedGroup = 20
	// mixedApplyEvery is the replica's lazy-apply cadence (repl.GroupConfig.
	// ApplyEvery), set so high that it never comes due: the replica receives
	// and acknowledges every shipment and replays its backlog when it is
	// promoted. A replica re-parses its whole received segment on every
	// apply, and with one checkpoint per run (README, finding 4) the segment
	// is the whole run's log: with ApplyEvery 1 the rounds of one run slowed
	// from 4.6 s to 12 s, with 50 from 2.2 s to 4 s.
	mixedApplyEvery = 1 << 30
)

var mixedRW = &workload{
	name:     "mixed_rw",
	why:      "writes beside reads on the same sql/exec/index code, with txn commit, WAL flush, version GC and replica shipping on the blocking path; 170000 rows, 80000 statements/round",
	roundOps: mixedRoundOps,
	sizes:    "orders 170000 rows + indexes on id and cust, 1 replica; 80000 statements/round; 45% INSERT, 20% UPDATE, 10% DELETE, 25% cust lookup (~20 rows)",
	setup:    setupMixed,
}

// mixedStream generates connection c's statements and models the orders
// rows the connection owns: its half of the loaded rows, then the rows it
// inserted. Row j of the model is "logical" row j of the connection; ids
// and cust values interleave the connections so neither key space nor
// cust group is ever shared.
type mixedStream struct {
	rng     uint64
	c       int
	loaded  int // rows loaded for all connections
	half    int // loaded rows this connection owns
	live    []bool
	total   []int64
	written int
	h       rowHasher
	row     storage.Tuple
}

func mixedTotal(id int64) int64 { return id * 13 % 10_000 }

func newMixedStream(seed uint64, c, rows int) *mixedStream {
	s := &mixedStream{rng: streamSeed(seed, c), c: c, loaded: rows, half: rows / conns,
		row: storage.Tuple{storage.NewInt(0), storage.NewInt(0)}}
	s.live = make([]bool, s.half, 4*s.half)
	s.total = make([]int64, s.half, 4*s.half)
	for j := range s.live {
		s.live[j] = true
		s.total[j] = mixedTotal(s.id(j))
	}
	return s
}

func (s *mixedStream) id(j int) int64 {
	if j < s.half {
		return int64(s.c*s.half + j)
	}
	return int64(s.loaded + (j-s.half)*conns + s.c)
}

func (s *mixedStream) cust(j int) int64 {
	if j < s.half {
		return s.id(j) / mixedGroup
	}
	return int64(s.loaded/mixedGroup + (j-s.half)/mixedGroup*conns + s.c)
}

func (s *mixedStream) next(buf []byte) ([]byte, stmtKind, server.RowsResult) {
	r := splitmix64(&s.rng)
	pick := int((r >> 8) % uint64(len(s.live)))
	switch c := r % 100; {
	case c < 45:
		j := len(s.live)
		v := int64(splitmix64(&s.rng) % 10_000)
		s.live = append(s.live, true)
		s.total = append(s.total, v)
		s.written++
		buf = appendInt(append(buf, "INSERT INTO orders VALUES ("...), s.id(j))
		buf = appendInt(append(buf, ", "...), s.cust(j))
		buf = appendInt(append(buf, ", "...), v)
		return append(buf, ')'), kInsert, server.RowsResult{}
	case c < 65:
		v := int64(splitmix64(&s.rng) % 10_000)
		if s.live[pick] {
			s.total[pick] = v
			s.written++
		}
		buf = appendInt(append(buf, "UPDATE orders SET total = "...), v)
		buf = appendInt(append(buf, " WHERE id = "...), s.id(pick))
		return buf, kPointUpdate, server.RowsResult{}
	case c < 75:
		s.live[pick] = false
		return appendInt(append(buf, "DELETE FROM orders WHERE id = "...), s.id(pick)), kDelete, server.RowsResult{}
	default:
		// Only complete cust groups are looked up, so every lookup covers
		// mixedGroup rows less the deleted ones.
		g := pick % (len(s.live) / mixedGroup)
		var want server.RowsResult
		for j := g * mixedGroup; j < (g+1)*mixedGroup; j++ {
			if s.live[j] {
				s.row[0].I, s.row[1].I = s.id(j), s.total[j]
				want.Count++
				want.Digest ^= s.h.hash(s.row)
			}
		}
		buf = appendInt(append(buf, "SELECT id, total FROM orders WHERE cust = "...), s.cust(g*mixedGroup))
		return buf, kRangeSelect, want
	}
}

func (s *mixedStream) state() (int, uint64) {
	var h rowHasher
	var d uint64
	rows := 0
	row := storage.Tuple{storage.NewInt(0), storage.NewInt(0), storage.NewInt(0)}
	for j, live := range s.live {
		if live {
			row[0].I, row[1].I, row[2].I = s.id(j), s.cust(j), s.total[j]
			d ^= h.hash(row)
			rows++
		}
	}
	return rows, d
}

func (s *mixedStream) userBytes() int { return 24 * s.written }

type mixedBench struct {
	*wireBench
	grp *repl.Group
}

func setupMixed(sc scale, seed uint64, tr *tracer, m map[string]float64) (instance, error) {
	rows := sc.rows(mixedRows, conns*mixedGroup)
	w := &wireBench{
		table: "orders",
		ddl: []string{
			"CREATE TABLE orders (id INT, cust INT, total INT)",
			"CREATE UNIQUE INDEX orders_pk ON orders (id)",
			"CREATE INDEX orders_cust ON orders (cust)",
		},
		db:         engine.OpenOnDevices(catalog.DefaultKnobs(), hw.NewMemDevice(), hw.NewMemDevice()),
		flushEvery: sc.rows(flushEveryStmts, 1),
		bigEvery:   sc.rows(bigEveryStmts, 1),
		traceOps:   sc.rows(traceStmts, traceChunk),
		corrupt:    sc.corrupt,
		m:          m,
	}
	b := &mixedBench{wireBench: w}
	if err := w.startServer(); err != nil {
		return nil, err
	}
	err := w.loadOverWire(tr, m, rows, func(buf []byte, i int) []byte {
		id := int64(i)
		buf = appendInt(append(buf, '('), id)
		buf = appendInt(append(buf, ", "...), id/mixedGroup)
		buf = appendInt(append(buf, ", "...), mixedTotal(id))
		return append(buf, ')')
	})
	if err == nil {
		b.grp, err = repl.NewGroup(w.db, w.freshEngine, server.NewPipe(), repl.GroupConfig{Replicas: 1, ApplyEvery: []int{mixedApplyEvery}})
	}
	if err == nil {
		err = b.sync(nil)
	}
	if err != nil {
		b.close()
		return nil, err
	}
	w.afterFlush = b.sync
	for c := range w.conn {
		w.conn[c] = &wireConn{st: newMixedStream(seed, c, rows)}
	}
	if err := w.dial(); err != nil {
		b.close()
		return nil, err
	}
	w.walBase = w.walNow()
	return b, nil
}

func (b *mixedBench) sync(tr *tracer) error {
	var err error
	tr.do("repl", "Group.Sync", func() { err = b.grp.Sync() })
	return err
}

func (b *mixedBench) close() {
	if b.grp != nil {
		b.grp.Close()
	}
	b.wireBench.close()
}

func (b *mixedBench) layers(tr *tracer, m map[string]float64) error {
	if err := b.wireBench.layers(tr, m); err != nil {
		return err
	}
	m["repl.frame_codec_ns"] = shipCodecNS()
	return nil
}

// check makes everything durable, then requires three engines to hold the
// rows the streams expect: the live primary, one recovered from only the
// two devices' flushed bytes, and the promoted replica.
func (b *mixedBench) check() error {
	if err := b.wireBench.check(); err != nil {
		return err
	}
	now := b.walNow()
	if commits := now.commits - b.walBase.commits; commits > 0 {
		b.m["repl.ship_bytes_per_commit"] = float64(now.flushed-b.walBase.flushed) / float64(commits)
	}
	if _, err := b.recoverCheck(nil); err != nil {
		return err
	}
	if err := b.grp.Close(); err != nil {
		return err
	}
	rep := b.grp.Replicas()[0]
	if _, err := rep.Promote(); err != nil {
		return fmt.Errorf("promote: %w", err)
	}
	return b.checkState("promoted replica", rep.DB())
}

// shipCodecNS times repl.AppendShipFrame + repl.DecodeShipFrame of one
// 32 KiB append frame (about one flush interval of log) in isolation.
func shipCodecNS() float64 {
	f := repl.ShipFrame{Type: repl.ShipAppend, Epoch: 3, Offset: 1 << 20, Payload: make([]byte, 32<<10)}
	const iters = 2000
	buf := make([]byte, 0, 40<<10)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		buf = repl.AppendShipFrame(buf[:0], f)
		if _, _, err := repl.DecodeShipFrame(buf); err != nil {
			return 0
		}
	}
	return float64(time.Since(t0)) / iters
}
