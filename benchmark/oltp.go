package main

import (
	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/server"
	"mb2/internal/storage"
)

// oltp_point: frozen full-size counts.
const (
	oltpRows     = 300_000 // acct rows, loaded over the wire
	oltpRoundOps = 180_000 // statements per round, both connections together
)

var oltpPoint = &workload{
	name:     "oltp_point",
	why:      "statements so small that wire, parse, plan and fingerprint dominate; the prepared tenth already skips parse and plan; 300000 rows, 180000 statements/round",
	roundOps: oltpRoundOps,
	sizes:    "acct 300000 rows + unique index; 180000 statements/round; 70% SELECT, 20% UPDATE, 10% prepared SELECT",
	setup:    setupOLTP,
}

// oltpStream generates connection c's statements over its half of acct and
// models acct.bal for that half.
type oltpStream struct {
	rng      uint64
	lo, span int64
	bal      []int64
	written  int
	h        rowHasher
	row      storage.Tuple
}

func oltpBal(id int64) int64 { return id * 7 % 1000 }

func newOLTPStream(seed uint64, c, rows int) *oltpStream {
	span := int64(rows / conns)
	s := &oltpStream{rng: streamSeed(seed, c), lo: int64(c) * span, span: span, bal: make([]int64, span),
		row: storage.Tuple{storage.NewInt(0), storage.NewInt(0)}}
	for i := range s.bal {
		s.bal[i] = oltpBal(s.lo + int64(i))
	}
	return s
}

const oltpSelect = "SELECT id, bal FROM acct WHERE id = "

func (s *oltpStream) selected(k int64) server.RowsResult {
	s.row[0].I, s.row[1].I = k, s.bal[k-s.lo]
	return server.RowsResult{Count: 1, Digest: s.h.hash(s.row)}
}

func (s *oltpStream) next(buf []byte) ([]byte, stmtKind, server.RowsResult) {
	r := splitmix64(&s.rng)
	k := s.lo + int64((r>>8)%uint64(s.span))
	switch c := r % 10; {
	case c < 7:
		return appendInt(append(buf, oltpSelect...), k), kPointSelect, s.selected(k)
	case c < 9:
		v := int64(splitmix64(&s.rng) % 1_000_000)
		buf = appendInt(append(buf, "UPDATE acct SET bal = "...), v)
		buf = appendInt(append(buf, " WHERE id = "...), k)
		s.bal[k-s.lo] = v
		s.written++
		return buf, kPointUpdate, server.RowsResult{}
	default:
		// The prepared statement reads the first key of the range.
		return appendInt(append(buf, oltpSelect...), s.lo), kPrepared, s.selected(s.lo)
	}
}

func (s *oltpStream) state() (int, uint64) {
	var h rowHasher
	var d uint64
	row := storage.Tuple{storage.NewInt(0), storage.NewInt(0), storage.NewInt(0)}
	for i, bal := range s.bal {
		id := s.lo + int64(i)
		row[0].I, row[1].I, row[2].I = id, id%13, bal
		d ^= h.hash(row)
	}
	return len(s.bal), d
}

func (s *oltpStream) userBytes() int { return 24 * s.written }

func setupOLTP(sc scale, seed uint64, tr *tracer, m map[string]float64) (instance, error) {
	rows := sc.rows(oltpRows, conns)
	w := &wireBench{
		table: "acct",
		ddl: []string{
			"CREATE TABLE acct (id INT, grp INT, bal INT)",
			"CREATE UNIQUE INDEX acct_pk ON acct (id)",
		},
		db:         engine.Open(catalog.DefaultKnobs()),
		flushEvery: sc.rows(flushEveryStmts, 1),
		bigEvery:   sc.rows(bigEveryStmts, 1),
		traceOps:   sc.rows(traceStmts, traceChunk),
		corrupt:    sc.corrupt,
		m:          m,
	}
	if err := w.startServer(); err != nil {
		return nil, err
	}
	err := w.loadOverWire(tr, m, rows, func(buf []byte, i int) []byte {
		id := int64(i)
		buf = appendInt(append(buf, '('), id)
		buf = appendInt(append(buf, ", "...), id%13)
		buf = appendInt(append(buf, ", "...), oltpBal(id))
		return append(buf, ')')
	})
	if err != nil {
		w.close()
		return nil, err
	}
	for c := range w.conn {
		w.conn[c] = &wireConn{st: newOLTPStream(seed, c, rows)}
	}
	// Each connection prepares the point select of its range's first key.
	w.prepared = func(c int) string { return string(appendInt([]byte(oltpSelect), int64(c*(rows/conns)))) }
	if err := w.dial(); err != nil {
		w.close()
		return nil, err
	}
	w.walBase = w.walNow()
	return w, nil
}
