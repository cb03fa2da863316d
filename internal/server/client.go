package server

import (
	"fmt"

	"mb2/internal/session"
)

// Client speaks the framed protocol from the application side. Like a
// session, it runs one request at a time; it is not safe for concurrent
// use.
type Client struct {
	conn Conn
	fc   *FrameConn
	// SessionID is the process-list ID the server assigned at HELLO.
	SessionID uint64
}

// Dial connects over the transport and performs the HELLO handshake.
func Dial(tr Transport) (*Client, error) {
	conn, err := tr.Dial()
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, fc: NewFrameConn(conn)}
	f, err := c.roundTrip(MsgHello, c.fc.Begin())
	if err != nil {
		conn.Close()
		return nil, err
	}
	if f.Type != MsgHelloOK {
		conn.Close()
		return nil, fmt.Errorf("server: handshake got frame type %d", f.Type)
	}
	id, err := decodeHelloOK(f.Payload)
	if err != nil {
		conn.Close()
		return nil, err
	}
	c.SessionID = id
	return c, nil
}

// roundTrip sends one request — req, a c.fc.Begin buffer with the payload
// appended, as a frame of type typ — and reads its one response, surfacing
// MsgError responses as *RemoteError. The response payload is valid until
// the next round trip.
func (c *Client) roundTrip(typ byte, req []byte) (Frame, error) {
	if err := c.fc.End(typ, req); err != nil {
		return Frame{}, err
	}
	f, err := c.fc.Recv()
	if err != nil {
		return Frame{}, err
	}
	if err := f.RemoteErr(); err != nil {
		return Frame{}, err
	}
	return f, nil
}

// expectRows decodes a MsgRows response.
func expectRows(f Frame) (RowsResult, error) {
	if f.Type != MsgRows {
		return RowsResult{}, fmt.Errorf("server: expected ROWS, got frame type %d", f.Type)
	}
	return decodeRows(f.Payload)
}

// Query executes one SQL statement.
func (c *Client) Query(sql string) (RowsResult, error) {
	f, err := c.roundTrip(MsgQuery, appendString(c.fc.Begin(), sql))
	if err != nil {
		return RowsResult{}, err
	}
	return expectRows(f)
}

// Prepare registers a named prepared statement on the server session.
func (c *Client) Prepare(name, sql string) error {
	f, err := c.roundTrip(MsgPrepare, appendString(appendString(c.fc.Begin(), name), sql))
	if err != nil {
		return err
	}
	if f.Type != MsgPrepareOK {
		return fmt.Errorf("server: expected PREPARE_OK, got frame type %d", f.Type)
	}
	return nil
}

// ExecPrepared executes a prepared statement by name.
func (c *Client) ExecPrepared(name string) (RowsResult, error) {
	f, err := c.roundTrip(MsgExec, appendString(c.fc.Begin(), name))
	if err != nil {
		return RowsResult{}, err
	}
	return expectRows(f)
}

// List fetches the server's process list.
func (c *Client) List() ([]session.ProcessInfo, error) {
	f, err := c.roundTrip(MsgList, c.fc.Begin())
	if err != nil {
		return nil, err
	}
	if f.Type != MsgProcs {
		return nil, fmt.Errorf("server: expected PROCS, got frame type %d", f.Type)
	}
	return decodeProcs(f.Payload)
}

// Kill cancels a session by process-list ID, reporting whether the ID
// was live.
func (c *Client) Kill(id uint64) (bool, error) {
	f, err := c.roundTrip(MsgKill, appendU64(c.fc.Begin(), id))
	if err != nil {
		return false, err
	}
	if f.Type != MsgKillOK {
		return false, fmt.Errorf("server: expected KILL_OK, got frame type %d", f.Type)
	}
	return decodeKillOK(f.Payload)
}

// Close says goodbye and hangs up. Safe to call after errors.
func (c *Client) Close() error {
	_, _ = c.roundTrip(MsgClose, c.fc.Begin())
	return c.conn.Close()
}
