package server

import (
	"encoding/binary"
	"fmt"

	"mb2/internal/session"
)

// Message types. Requests flow client → server, responses server →
// client; every request gets exactly one response frame.
const (
	// MsgHello opens a session (empty payload); MsgHelloOK answers with
	// the assigned process-list session ID.
	MsgHello byte = iota + 1
	MsgHelloOK
	// MsgQuery executes one SQL statement; MsgRows answers with the
	// result row count and an order-insensitive result digest.
	MsgQuery
	MsgRows
	// MsgError is the failure response to any request.
	MsgError
	// MsgPrepare registers a named prepared statement; MsgPrepareOK acks.
	MsgPrepare
	MsgPrepareOK
	// MsgExec executes a prepared statement by name (answered by
	// MsgRows).
	MsgExec
	// MsgList requests the process list; MsgProcs answers with its rows.
	MsgList
	MsgProcs
	// MsgKill cancels a session by ID; MsgKillOK reports whether the ID
	// was live.
	MsgKill
	MsgKillOK
	// MsgClose ends the session; MsgBye acks and the server hangs up.
	MsgClose
	MsgBye
	// Types 0x41..0x43 are reserved for internal/repl's ship messages,
	// which ride the same frames on their own connections.
)

// RemoteError is the peer's failure relayed over the wire.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "server: remote error: " + e.Msg }

// ErrorFrame is the MsgError response relaying err.
func ErrorFrame(err error) Frame {
	return Frame{Type: MsgError, Payload: appendString(nil, err.Error())}
}

// RemoteErr returns the failure f relays when it is a MsgError response —
// a *RemoteError, or the decode error of a malformed one — and nil for any
// other frame.
func (f Frame) RemoteErr() error {
	if f.Type != MsgError {
		return nil
	}
	c := &cursor{b: f.Payload}
	msg := c.str()
	if err := c.done(); err != nil {
		return err
	}
	return &RemoteError{Msg: msg}
}

// RowsResult is a statement's wire-visible outcome.
type RowsResult struct {
	// Count is the number of result rows (DML reports 0).
	Count uint64
	// Digest is an order-insensitive hash of the result rows, stable
	// across replays regardless of operator scheduling.
	Digest uint64
}

// --- primitive encoders -------------------------------------------------

func appendU64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

func appendU32(dst []byte, v uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return append(dst, b[:]...)
}

func appendString(dst []byte, s string) []byte {
	dst = appendU32(dst, uint32(len(s)))
	return append(dst, s...)
}

// cursor walks a payload during decoding.
type cursor struct {
	b   []byte
	off int
	err error
}

func (c *cursor) fail() {
	if c.err == nil {
		c.err = fmt.Errorf("server: short payload at offset %d of %d", c.off, len(c.b))
	}
}

func (c *cursor) u8() byte {
	if c.err != nil || c.off+1 > len(c.b) {
		c.fail()
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

func (c *cursor) u32() uint32 {
	if c.err != nil || c.off+4 > len(c.b) {
		c.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v
}

func (c *cursor) u64() uint64 {
	if c.err != nil || c.off+8 > len(c.b) {
		c.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v
}

func (c *cursor) str() string {
	n := int(c.u32())
	if c.err != nil || c.off+n > len(c.b) {
		c.fail()
		return ""
	}
	v := string(c.b[c.off : c.off+n])
	c.off += n
	return v
}

// done errors unless the payload was consumed exactly.
func (c *cursor) done() error {
	if c.err != nil {
		return c.err
	}
	if c.off != len(c.b) {
		return fmt.Errorf("server: %d trailing payload bytes", len(c.b)-c.off)
	}
	return nil
}

// --- message payloads ---------------------------------------------------

func encodeHelloOK(id uint64) []byte { return appendU64(nil, id) }

func decodeHelloOK(p []byte) (uint64, error) {
	c := &cursor{b: p}
	id := c.u64()
	return id, c.done()
}

func encodeQuery(sql string) []byte { return appendString(nil, sql) }

func decodeQuery(p []byte) (string, error) {
	c := &cursor{b: p}
	s := c.str()
	return s, c.done()
}

func encodePrepare(name, sql string) []byte {
	return appendString(appendString(nil, name), sql)
}

func decodePrepare(p []byte) (name, sql string, err error) {
	c := &cursor{b: p}
	name = c.str()
	sql = c.str()
	return name, sql, c.done()
}

func encodeExec(name string) []byte { return appendString(nil, name) }

func decodeExec(p []byte) (string, error) {
	c := &cursor{b: p}
	s := c.str()
	return s, c.done()
}

func encodeRows(r RowsResult) []byte {
	return appendU64(appendU64(nil, r.Count), r.Digest)
}

func decodeRows(p []byte) (RowsResult, error) {
	c := &cursor{b: p}
	r := RowsResult{Count: c.u64(), Digest: c.u64()}
	return r, c.done()
}

func encodeKill(id uint64) []byte { return appendU64(nil, id) }

func decodeKill(p []byte) (uint64, error) {
	c := &cursor{b: p}
	id := c.u64()
	return id, c.done()
}

func encodeKillOK(found bool) []byte {
	if found {
		return []byte{1}
	}
	return []byte{0}
}

func decodeKillOK(p []byte) (bool, error) {
	c := &cursor{b: p}
	v := c.u8()
	return v != 0, c.done()
}

func encodeProcs(rows []session.ProcessInfo) []byte {
	dst := appendU32(nil, uint32(len(rows)))
	for _, r := range rows {
		dst = appendU64(dst, r.ID)
		dst = append(dst, byte(r.State))
		dst = appendU64(dst, r.Queries)
		dst = appendU64(dst, r.Failed)
		dst = appendString(dst, r.Statement)
	}
	return dst
}

func decodeProcs(p []byte) ([]session.ProcessInfo, error) {
	c := &cursor{b: p}
	n := int(c.u32())
	var rows []session.ProcessInfo
	for i := 0; i < n && c.err == nil; i++ {
		rows = append(rows, session.ProcessInfo{
			ID:      c.u64(),
			State:   session.State(c.u8()),
			Queries: c.u64(),
			Failed:  c.u64(),
		})
		rows[len(rows)-1].Statement = c.str()
	}
	return rows, c.done()
}
