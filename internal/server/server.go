package server

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"mb2/internal/engine"
	"mb2/internal/exec"
	"mb2/internal/fold"
	"mb2/internal/index"
	"mb2/internal/session"
)

// Config sizes the server.
type Config struct {
	// MaxSessions is the admission cap handed to the process list
	// (<= 0 for unlimited).
	MaxSessions int
	// Contenders fixes the latch-contention scale for every session
	// (0 = live session count at admission): deterministic harnesses set
	// it so observed metrics replay bit for bit.
	Contenders float64
}

// Server terminates the framed protocol: one connection maps to one
// session in the process list, and every request is answered with
// exactly one response frame.
type Server struct {
	reg *session.Registry
	cfg Config

	mu        sync.Mutex
	listeners []Listener
	closed    bool
	wg        sync.WaitGroup
}

// New builds a server over db with its own process list.
func New(db *engine.DB, cfg Config) *Server {
	return &Server{reg: session.NewRegistry(db, cfg.MaxSessions), cfg: cfg}
}

// Registry exposes the process list — the handle the self-driving loop
// observes live traffic through.
func (s *Server) Registry() *session.Registry { return s.reg }

// Serve accepts connections from ln until it closes, handling each on
// its own goroutine. It returns nil on a clean listener close.
func (s *Server) Serve(ln Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrTransportClosed
	}
	s.listeners = append(s.listeners, ln)
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed || errors.Is(err, ErrTransportClosed) || errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
		}()
	}
}

// Close stops every listener and waits for in-flight connections.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	lns := s.listeners
	s.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	s.wg.Wait()
}

// handleConn speaks the protocol for one connection's lifetime. The
// session opens at MsgHello and closes when the client hangs up or says
// MsgClose — including abnormal disconnects, so a dead client never
// leaks a process-list entry. A statement failure is relayed as MsgError
// without dropping the connection.
func (s *Server) handleConn(conn Conn) {
	defer conn.Close()
	fc := NewFrameConn(conn)

	// Handshake: the first frame must be MsgHello.
	f, err := fc.Recv()
	if err != nil || f.Type != MsgHello {
		if err == nil {
			_ = fc.Send(ErrorFrame(fmt.Errorf("expected HELLO, got frame type %d", f.Type)))
		}
		return
	}
	sess, err := s.reg.Open(session.Options{Contenders: s.cfg.Contenders})
	if err != nil {
		_ = fc.Send(ErrorFrame(err))
		return
	}
	defer sess.Close()
	if err := fc.End(MsgHelloOK, appendU64(fc.Begin(), sess.ID)); err != nil {
		return
	}

	var dg digester
	for {
		f, err := fc.Recv()
		if err != nil {
			return // disconnect (clean EOF or otherwise): session closes
		}
		var fail error
		switch f.Type {
		case MsgQuery:
			q, derr := decodeQuery(f.Payload)
			if fail = derr; fail != nil {
				break
			}
			b, _, xerr := sess.ExecSQL(q)
			if fail = xerr; fail != nil {
				break
			}
			err = fc.End(MsgRows, appendRows(fc.Begin(), dg.rowsResult(b)))
			sess.Release() // an idle connection pins no result
		case MsgPrepare:
			name, sql, derr := decodePrepare(f.Payload)
			if fail = derr; fail != nil {
				break
			}
			if _, fail = sess.Prepare(name, sql); fail != nil {
				break
			}
			err = fc.End(MsgPrepareOK, fc.Begin())
		case MsgExec:
			name, derr := decodeExec(f.Payload)
			if fail = derr; fail != nil {
				break
			}
			b, _, xerr := sess.ExecPrepared(name)
			if fail = xerr; fail != nil {
				break
			}
			err = fc.End(MsgRows, appendRows(fc.Begin(), dg.rowsResult(b)))
			sess.Release()
		case MsgList:
			err = fc.End(MsgProcs, appendProcs(fc.Begin(), s.reg.List()))
		case MsgKill:
			id, derr := decodeKill(f.Payload)
			if fail = derr; fail != nil {
				break
			}
			err = fc.End(MsgKillOK, appendKillOK(fc.Begin(), s.reg.Kill(id, nil)))
		case MsgClose:
			// Reap the session before saying goodbye: once Client.Close
			// returns, the process list no longer shows it.
			sess.Close()
			_ = fc.End(MsgBye, fc.Begin())
			return
		default:
			fail = fmt.Errorf("unknown frame type %d", f.Type)
		}
		if fail != nil {
			err = fc.Send(ErrorFrame(fail))
		}
		if err != nil {
			return
		}
	}
}

// digester is one connection's scratch for result digests: the column list
// and key buffer batchDigest encodes every row with, reused from result to
// result.
type digester struct {
	cols []int
	buf  []byte
}

// rowsResult summarizes a result batch for the wire.
func (d *digester) rowsResult(b *exec.Batch) RowsResult {
	if b == nil {
		return RowsResult{}
	}
	return RowsResult{Count: uint64(len(b.Rows)), Digest: d.batchDigest(b)}
}

// batchDigest hashes a result batch order-insensitively: the XOR of
// per-row canonical-encoding hashes. Replays compare equal regardless
// of operator scheduling or row order, which is what lets seeded
// load-generator digests stay bit-exact.
func (d *digester) batchDigest(b *exec.Batch) uint64 {
	if len(b.Rows) == 0 {
		return 0
	}
	for i := len(d.cols); i < len(b.Rows[0]); i++ {
		d.cols = append(d.cols, i)
	}
	cols := d.cols[:len(b.Rows[0])]
	var acc uint64
	for _, row := range b.Rows {
		d.buf = index.AppendKeyFromTuple(d.buf[:0], row, cols)
		acc ^= fold.New().Bytes(d.buf).Sum64()
	}
	return acc
}
