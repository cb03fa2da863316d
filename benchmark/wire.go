package main

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"mb2/internal/engine"
	"mb2/internal/exec"
	"mb2/internal/index"
	"mb2/internal/plan"
	"mb2/internal/server"
	"mb2/internal/session"
	"mb2/internal/sql"
	"mb2/internal/storage"
)

// The two statement workloads (oltp_point, mixed_rw) share this driver:
// a server.Server on an in-process pipe, two server.Clients, and one
// seeded statement stream per connection.

// stmtKind is a statement class of the wire workloads.
type stmtKind int

const (
	kPointSelect stmtKind = iota
	kPointUpdate
	kPrepared
	kInsert
	kDelete
	kRangeSelect
	numKinds
)

// kindSpan names the exec-layer span (and per-layer metric) of a class.
var kindSpan = [numKinds]string{
	kPointSelect: "exec.point_select",
	kPointUpdate: "exec.point_update",
	kPrepared:    "exec.point_select",
	kInsert:      "exec.insert",
	kDelete:      "exec.delete",
	kRangeSelect: "exec.range_select",
}

func (k stmtKind) dml() bool { return k == kPointUpdate || k == kInsert || k == kDelete }

// stream is one connection's statement generator. It is also the
// reference model: it tracks the rows its connection owns, so it knows the
// row count and row digest every statement must return. Connections write
// only keys in their own range, so a stream's expectations do not depend
// on how the connections interleave.
type stream interface {
	// next appends the next statement's text to buf and returns it with
	// its class and expected result. A kPrepared statement's text is the
	// prepared statement's SQL.
	next(buf []byte) (text []byte, kind stmtKind, want server.RowsResult)
	// state returns the rows the stream expects its connection to own
	// now: count and order-insensitive digest.
	state() (rows int, digest uint64)
	// userBytes returns the payload bytes of the rows written so far.
	userBytes() int
}

// splitmix64 is the only source of randomness; every stream state derives
// from -seed.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// streamSeed derives connection c's stream state from the run seed.
func streamSeed(seed uint64, c int) uint64 {
	s := seed ^ uint64(c+1)*0xd1342543de82ef95
	splitmix64(&s)
	return s
}

// rowHasher computes the hash server.Server folds into RowsResult.Digest
// for one result row: FNV-1a over the row's canonical key encoding.
type rowHasher struct {
	buf  []byte
	cols []int
}

func (h *rowHasher) hash(row storage.Tuple) uint64 {
	for len(h.cols) < len(row) {
		h.cols = append(h.cols, len(h.cols))
	}
	h.buf = index.AppendKeyFromTuple(h.buf[:0], row, h.cols[:len(row)])
	d := uint64(14695981039346656037)
	for _, b := range h.buf {
		d = (d ^ uint64(b)) * 1099511628211
	}
	return d
}

// batchResult summarizes a result batch the way the wire does.
func (h *rowHasher) batchResult(b *exec.Batch) server.RowsResult {
	var r server.RowsResult
	if b == nil {
		return r
	}
	for _, row := range b.Rows {
		r.Count++
		r.Digest ^= h.hash(row)
	}
	return r
}

// tableState digests a table's committed rows the way stream.state does.
func tableState(db *engine.DB, table string) (rows int, digest uint64) {
	var h rowHasher
	db.Table(table).Scan(nil, 0, db.Txns.LastCommitTS(), func(_ storage.RowID, data storage.Tuple) bool {
		rows++
		digest ^= h.hash(data)
		return true
	})
	return rows, digest
}

// wireConn is one client connection's driver state.
type wireConn struct {
	cl     *server.Client
	st     stream
	seq    int // statements issued so far
	lat    []int64
	failed int
	err    error // first failure or wrong result
	buf    []byte
}

// Frozen policy of the statement workloads, at full size.
const (
	flushEveryStmts = 1000  // connection 0 flushes the WAL every so many of its statements
	bigEveryStmts   = 20000 // ... and runs the heavy maintenance every so many
	// traceStmts statements run traced (5000 on each of the three paths a
	// statement can take) and as many untraced beside them, alternating in
	// chunks of traceChunk.
	traceStmts = 15000
	traceChunk = 30
)

// wireBench is a set-up statement workload.
type wireBench struct {
	table string
	ddl   []string // schema; replicas and recovery targets replay it
	db    *engine.DB
	srv   *server.Server
	tr    *server.PipeTransport
	done  chan error
	conn  [conns]*wireConn

	// Count-triggered maintenance, run by connection 0's driver between
	// its statements: flushEvery statements apart the WAL is serialized
	// and flushed (and synced to the replica by the flush hook); bigEvery
	// apart versions are pruned and the observation buffers drained.
	// Nothing is triggered by a timer.
	flushEvery, bigEvery int
	traceOps             int // statements of the traced pass, and as many untraced beside them
	afterFlush           func(tr *tracer) error

	prepared func(c int) string // SQL of connection c's prepared statement "pt" (nil = none)
	corrupt  bool               // falsify one expectation so the checks must fail

	walBase walCounters
	m       map[string]float64 // the run's per-layer metrics
}

type walCounters struct{ bytes, flushed, flushes, commits uint64 }

func (w *wireBench) walNow() walCounters {
	_, b, fb, _, fl := w.db.WAL.Stats()
	_, committed, _ := w.db.Txns.Stats()
	return walCounters{bytes: b, flushed: fb, flushes: fl, commits: committed}
}

// startServer opens the pipe server over db and dials the connections.
func (w *wireBench) startServer() error {
	w.tr = server.NewPipe()
	w.srv = server.New(w.db, server.Config{MaxSessions: conns + 2})
	ln, err := w.tr.Listen()
	if err != nil {
		return err
	}
	w.done = make(chan error, 1)
	go func() { w.done <- w.srv.Serve(ln) }()
	return nil
}

// dial opens the client connections; each prepares its own "pt" when the
// workload has a prepared statement.
func (w *wireBench) dial() error {
	for c := range w.conn {
		cl, err := server.Dial(w.tr)
		if err != nil {
			return fmt.Errorf("dial connection %d: %w", c, err)
		}
		w.conn[c].cl = cl
		if w.prepared != nil {
			if err := cl.Prepare("pt", w.prepared(c)); err != nil {
				return err
			}
		}
	}
	return nil
}

// loadOverWire creates the schema and loads rows through an admin
// connection: multi-row INSERTs, then the index builds, then a flush and a
// checkpoint so the durable images cover the loaded state.
func (w *wireBench) loadOverWire(tr *tracer, m map[string]float64, rows int, row func(buf []byte, i int) []byte) error {
	admin, err := server.Dial(w.tr)
	if err != nil {
		return err
	}
	defer admin.Close()
	if _, err := admin.Query(w.ddl[0]); err != nil {
		return err
	}
	const perStmt = 100
	var lerr error
	t0 := time.Now()
	tr.do("storage", "load", func() {
		buf := make([]byte, 0, 4096)
		for i := 0; i < rows && lerr == nil; i += perStmt {
			buf = append(buf[:0], "INSERT INTO "...)
			buf = append(buf, w.table...)
			buf = append(buf, " VALUES "...)
			for j := i; j < i+perStmt && j < rows; j++ {
				if j > i {
					buf = append(buf, ", "...)
				}
				buf = row(buf, j)
			}
			_, lerr = admin.Query(string(buf))
		}
	})
	if lerr != nil {
		return lerr
	}
	m["storage.bulk_load_rows_per_s"] = float64(rows) / time.Since(t0).Seconds()
	t0 = time.Now()
	for _, stmt := range w.ddl[1:] {
		tr.do("index", "CREATE INDEX", func() { _, lerr = admin.Query(stmt) })
		if lerr != nil {
			return lerr
		}
	}
	m["index.build_ms"] = float64(time.Since(t0)) / 1e6
	if err := w.flush(nil); err != nil {
		return err
	}
	if _, err := checkpoint(nil, w.srv.Registry()); err != nil {
		return err
	}
	w.srv.Registry().DrainObservations()
	return nil
}

// checkpoint quiesces and checkpoints through db's process list.
func checkpoint(tr *tracer, reg *session.Registry) (engine.CheckpointStats, error) {
	var st engine.CheckpointStats
	var err error
	tr.do("engine", "Registry.Checkpoint", func() { st, err = reg.Checkpoint(nil) })
	return st, err
}

// flush makes the log durable and, where there is a replica, ships it.
func (w *wireBench) flush(tr *tracer) error {
	var err error
	tr.do("wal", "WAL.Serialize+Flush", func() {
		w.db.WAL.Serialize(nil)
		_, err = w.db.WAL.Flush(nil)
	})
	if err == nil && w.afterFlush != nil {
		err = w.afterFlush(tr)
	}
	return err
}

// maintain runs the count-triggered maintenance due after connection 0's
// seq-th statement.
func (w *wireBench) maintain(tr *tracer, seq int) error {
	if seq%w.flushEvery == 0 {
		if err := w.flush(tr); err != nil {
			return err
		}
	}
	if seq%w.bigEvery == 0 {
		w.gcAndDrain(tr, true)
	}
	return nil
}

// gcAndDrain is the heavy maintenance both statement workloads share:
// prune MVCC versions and drain the sessions' observation buffers (which
// otherwise keep one entry per distinct statement text forever).
func (w *wireBench) gcAndDrain(tr *tracer, count bool) {
	tr.do("gc", "Collector.Run", func() {
		st := w.db.GC.Run(nil)
		if count {
			w.m["gc.versions_pruned"] += float64(st.VersionsPruned)
		}
	})
	w.srv.Registry().DrainObservations()
}

// expect compares one statement's outcome with the stream's expectation.
func (c *wireConn) expect(text []byte, got, want server.RowsResult, err error) {
	if err != nil {
		c.failed++
		if c.err == nil {
			c.err = fmt.Errorf("statement %d %q: %w", c.seq, text, err)
		}
		return
	}
	if got != want {
		c.failed++
		if c.err == nil {
			c.err = fmt.Errorf("statement %d %q: got %d rows digest %#x, want %d rows digest %#x",
				c.seq, text, got.Count, got.Digest, want.Count, want.Digest)
		}
	}
}

// round runs ops statements, split evenly over the connections, behind a
// start barrier.
func (w *wireBench) round(ops int) (roundResult, error) {
	per := ops / conns
	start := make(chan struct{})
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for i := range w.conn {
		c := w.conn[i]
		if cap(c.lat) < per {
			c.lat = make([]int64, 0, per)
		}
		c.lat = c.lat[:0]
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			for n := 0; n < per; n++ {
				text, kind, want := c.st.next(c.buf[:0])
				c.buf = text
				if w.corrupt && i == 0 && c.seq == 7 {
					want.Digest ^= 1
				}
				var got server.RowsResult
				var err error
				t0 := time.Now()
				if kind == kPrepared {
					got, err = c.cl.ExecPrepared("pt")
				} else {
					got, err = c.cl.Query(string(text))
				}
				c.lat = append(c.lat, int64(time.Since(t0)))
				c.expect(text, got, want, err)
				c.seq++
				if i == 0 {
					if err := w.maintain(nil, c.seq); err != nil {
						errs[i] = fmt.Errorf("maintenance after statement %d: %w", c.seq, err)
						return
					}
				}
			}
		}(i)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	rr := roundResult{wall: time.Since(t0), units: per * conns}
	for i, c := range w.conn {
		if errs[i] != nil {
			return rr, errs[i]
		}
		rr.lat = append(rr.lat, c.lat...)
	}
	return rr, nil
}

// quiesce flushes (and ships) what is pending, prunes versions and drains
// the observation buffers.
func (w *wireBench) quiesce() error {
	if err := w.flush(nil); err != nil {
		return err
	}
	w.gcAndDrain(nil, false)
	return nil
}

// check requires every statement to have returned what its stream
// expected and, once everything is durable, the live table to hold exactly
// the rows the streams hold. It also stores the exact-count WAL metrics.
func (w *wireBench) check() error {
	if err := w.firstErr(); err != nil {
		return err
	}
	if err := w.flush(nil); err != nil {
		return err
	}
	w.walMetrics()
	return w.checkState("live", w.db)
}

func (w *wireBench) counts() (attempted, failed int) {
	for _, c := range w.conn {
		attempted += c.seq
		failed += c.failed
	}
	return attempted, failed
}

// firstErr returns the first failed or wrong statement of any connection.
func (w *wireBench) firstErr() error {
	for i, c := range w.conn {
		if c.err != nil {
			return fmt.Errorf("connection %d: %w", i, c.err)
		}
	}
	return nil
}

// checkState requires db's table to hold exactly the rows the streams
// expect.
func (w *wireBench) checkState(who string, db *engine.DB) error {
	var rows int
	var digest uint64
	for _, c := range w.conn {
		r, d := c.st.state()
		rows += r
		digest ^= d
	}
	gotRows, gotDigest := tableState(db, w.table)
	if gotRows != rows || gotDigest != digest {
		return fmt.Errorf("%s state: %d rows digest %#x, streams expect %d rows digest %#x",
			who, gotRows, gotDigest, rows, digest)
	}
	return nil
}

// freshEngine builds an empty engine with the workload's schema: the
// target of recovery and the replica factory.
func (w *wireBench) freshEngine() (*engine.DB, error) {
	db := engine.Open(w.db.Knobs())
	s, err := session.NewRegistry(db, 0).Open(session.Options{})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	for _, stmt := range w.ddl {
		if _, _, err := s.ExecSQL(stmt); err != nil {
			return nil, fmt.Errorf("%q: %w", stmt, err)
		}
	}
	return db, nil
}

// recoverCheck rebuilds a fresh engine from only the bytes flushed to the
// two devices, requires it to hold the expected state and returns it.
func (w *wireBench) recoverCheck(tr *tracer) (*engine.DB, error) {
	db, err := w.freshEngine()
	if err != nil {
		return nil, err
	}
	ck, log := w.db.CheckpointImage(), w.db.WAL.Durable()
	tr.do("engine", "DB.RecoverImages", func() { _, err = db.RecoverImages(nil, ck, log) })
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	return db, w.checkState("recovered", db)
}

func (w *wireBench) close() {
	for _, c := range w.conn {
		if c != nil && c.cl != nil {
			c.cl.Close()
		}
	}
	if w.srv != nil {
		w.srv.Close()
		<-w.done
	}
}

// --- traced pass --------------------------------------------------------

// direct executes the next n statements of connection 0's stream
// single-threaded, cycling each statement through one of three paths: the
// wire (Client.Query), the session (Session.ExecSQL / ExecPrepared), and
// the session's own steps called one by one (sql.Parse, Planner.Plan,
// plan.Fingerprint, Ctx.Begin, Session.ExecPlan, Ctx.Commit). Every
// statement runs exactly once, so the stream's model stays the reference
// and every result is checked. It returns the time spent in statements;
// count-triggered maintenance runs between them as in a round but is not
// part of that time.
func (w *wireBench) direct(tr *tracer, sess *session.Session, n int) (time.Duration, error) {
	c := w.conn[0]
	planner := sql.NewPlanner(w.db)
	var h rowHasher
	var spent time.Duration
	for i := 0; i < n; i++ {
		text, kind, want := c.st.next(c.buf[:0])
		c.buf = text
		q := string(text)
		var got server.RowsResult
		var err error
		t0 := time.Now()
		tr.nextOp()
		tr.do("benchmark", "op", func() {
			switch i % 3 {
			case 0:
				tr.do("server", "Client.Query", func() {
					if kind == kPrepared {
						got, err = c.cl.ExecPrepared("pt")
					} else {
						got, err = c.cl.Query(q)
					}
				})
			case 1:
				var b *exec.Batch
				if kind == kPrepared {
					tr.do("session", "Session.ExecPrepared", func() { b, _, err = sess.ExecPrepared("pt") })
				} else {
					tr.do("session", "Session.ExecSQL", func() { b, _, err = sess.ExecSQL(q) })
				}
				got = h.batchResult(b)
			default:
				var st sql.Statement
				var node plan.Node
				var fp uint64
				var b *exec.Batch
				tr.do("sql", "sql.Parse", func() { st, err = sql.Parse(q) })
				if err != nil {
					return
				}
				tr.do("sql", "Planner.Plan", func() { node, err = planner.Plan(st) })
				if err != nil {
					return
				}
				tr.do("plan", "plan.Fingerprint", func() { fp = plan.Fingerprint(node) })
				ec := sess.ExecCtx()
				if kind.dml() {
					tr.do("txn", "Ctx.Begin", func() { ec.Begin() })
				}
				tr.do("exec", kindSpan[kind], func() { b, _, err = sess.ExecPlan(q, fp, node) })
				if kind.dml() {
					if err != nil {
						_ = ec.Abort()
						return
					}
					tr.do("txn", "Ctx.Commit", func() { err = ec.Commit() })
				}
				got = h.batchResult(b)
			}
		})
		spent += time.Since(t0)
		c.expect(text, got, want, err)
		c.seq++
		if err := w.maintain(tr, c.seq); err != nil {
			return 0, err
		}
	}
	return spent, c.err
}

// us converts a nanosecond sample's median to microseconds.
func p50us(ns []float64) float64 { return median(ns) / 1e3 }

// layers runs the traced pass and the probes of the statement workloads.
func (w *wireBench) layers(tr *tracer, m map[string]float64) error {
	sess, err := w.srv.Registry().Open(session.Options{})
	if err != nil {
		return err
	}
	defer sess.Close()
	if w.prepared != nil {
		if _, err := sess.Prepare("pt", w.prepared(0)); err != nil {
			return err
		}
	}
	// Traced and untraced chunks alternate, so drift (table growth, log
	// length, host load) falls on both alike.
	var plain, traced time.Duration
	for done := 0; done < w.traceOps; done += traceChunk {
		d, err := w.direct(nil, sess, traceChunk)
		if err != nil {
			return err
		}
		plain += d
		if d, err = w.direct(tr, sess, traceChunk); err != nil {
			return err
		}
		traced += d
	}
	m["trace.overhead_pct"] = 100 * (float64(traced)/float64(plain) - 1)
	m["trace.untraced_op_us"] = float64(plain) / 1e3 / float64(w.traceOps)

	rt := tr.durations("Client.Query")
	m["server.roundtrip_us"] = p50us(rt)
	m["server.lat_p99_us"] = percentile(rt, 0.99) / 1e3
	m["session.exec_sql_us"] = p50us(tr.durations("Session.ExecSQL"))
	m["session.exec_prepared_us"] = p50us(tr.durations("Session.ExecPrepared"))
	m["server.overhead_us"] = m["server.roundtrip_us"] - m["session.exec_sql_us"]
	m["sql.parse_us"] = p50us(tr.durations("sql.Parse"))
	m["sql.plan_us"] = p50us(tr.durations("Planner.Plan"))
	m["plan.fingerprint_ns"] = median(tr.durations("plan.Fingerprint"))
	if m["session.exec_sql_us"] > 0 {
		m["session.plan_share"] = (m["sql.parse_us"] + m["sql.plan_us"] + m["plan.fingerprint_ns"]/1e3) / m["session.exec_sql_us"]
	}
	for k := stmtKind(0); k < numKinds; k++ {
		m[kindSpan[k]+"_us"] = p50us(tr.durations(kindSpan[k]))
	}
	m["txn.commit_us"] = p50us(tr.durations("Ctx.Commit"))
	m["wal.serialize_flush_us"] = p50us(tr.durations("WAL.Serialize+Flush"))
	m["repl.sync_us"] = p50us(tr.durations("Group.Sync"))
	m["server.frame_codec_ns"] = frameCodecNS(len(w.conn[0].buf))

	// Heavy maintenance is rarer than the traced pass is long, so probe it
	// directly: three version-GC passes here, and one recovery from the
	// devices' bytes followed by three checkpoints of the recovered engine.
	// The primary itself is not checkpointed again: its checkpoint device
	// only grows, and a second image would push a replica snapshot past
	// repl.MaxShipPayload.
	for i := 0; i < 3; i++ {
		w.gcAndDrain(tr, false)
	}
	if err := w.flush(nil); err != nil {
		return err
	}
	m["gc.run_ms"] = median(tr.durations("Collector.Run")) / 1e6
	db, err := w.recoverCheck(tr)
	if err != nil {
		return err
	}
	m["engine.recover_ms"] = median(tr.durations("DB.RecoverImages")) / 1e6
	reg := session.NewRegistry(db, 0)
	for i := 0; i < 3; i++ {
		st, err := checkpoint(tr, reg)
		if err != nil {
			return err
		}
		m["engine.checkpoint_image_bytes"] = float64(st.ImageBytes)
	}
	m["engine.checkpoint_ms"] = median(tr.durations("Registry.Checkpoint")) / 1e6
	return nil
}

// frameCodecNS times server.AppendFrame + server.DecodeFrame of one
// request frame (a statement of the given length) and one 16-byte reply
// frame, in isolation; it returns nanoseconds per request/reply pair.
func frameCodecNS(stmtLen int) float64 {
	req := server.Frame{Type: server.MsgQuery, Payload: make([]byte, 4+stmtLen)}
	rep := server.Frame{Type: server.MsgRows, Payload: make([]byte, 16)}
	const iters = 20000
	buf := make([]byte, 0, 256)
	bad := 0
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		for _, f := range [2]server.Frame{req, rep} {
			buf = server.AppendFrame(buf[:0], f)
			if _, _, err := server.DecodeFrame(buf); err != nil {
				bad++
			}
		}
	}
	if bad > 0 {
		return 0
	}
	return float64(time.Since(t0)) / iters
}

// walMetrics stores the exact-count WAL metrics of the statements run
// since walBase was taken.
func (w *wireBench) walMetrics() {
	m, now := w.m, w.walNow()
	commits := float64(now.commits - w.walBase.commits)
	if commits == 0 {
		return
	}
	m["wal.bytes_per_commit"] = float64(now.bytes-w.walBase.bytes) / commits
	m["wal.flushes"] = float64(now.flushes - w.walBase.flushes)
	user := 0
	for _, c := range w.conn {
		user += c.st.userBytes()
	}
	if user > 0 {
		m["wal.log_bytes_per_user_byte"] = float64(now.bytes-w.walBase.bytes) / float64(user)
	}
}

// appendInt appends a decimal integer.
func appendInt(buf []byte, v int64) []byte { return strconv.AppendInt(buf, v, 10) }
