package server

import (
	"errors"
	"strings"
	"testing"
	"time"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/session"
)

// startServer serves a fresh engine over tr and returns the server plus
// a cleanup that waits for Serve to drain.
func startServer(t *testing.T, tr Transport, cfg Config) *Server {
	t.Helper()
	srv := New(engine.Open(catalog.DefaultKnobs()), cfg)
	ln, err := tr.Listen()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv
}

// exerciseProtocol runs the full request vocabulary through one client.
func exerciseProtocol(t *testing.T, tr Transport, srv *Server) {
	t.Helper()
	cl, err := Dial(tr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.SessionID == 0 {
		t.Fatal("handshake assigned session ID 0")
	}

	if _, err := cl.Query("CREATE TABLE t (k INT, v FLOAT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Query("INSERT INTO t VALUES (1, 1.5), (2, 2.5), (3, 3.5)"); err != nil {
		t.Fatal(err)
	}
	r, err := cl.Query("SELECT * FROM t WHERE k >= 2")
	if err != nil {
		t.Fatal(err)
	}
	if r.Count != 2 {
		t.Fatalf("query returned %d rows, want 2", r.Count)
	}
	if r.Digest == 0 {
		t.Fatal("non-empty result digested to 0")
	}

	// Statement errors relay as RemoteError without dropping the
	// connection.
	if _, err := cl.Query("SELECT * FROM missing"); err == nil {
		t.Fatal("query on missing table succeeded")
	} else {
		var re *RemoteError
		if !errors.As(err, &re) {
			t.Fatalf("got %T %v, want *RemoteError", err, err)
		}
	}
	if _, err := cl.Query("SELECT count(k) FROM t"); err != nil {
		t.Fatalf("connection dead after statement error: %v", err)
	}

	// A ship-typed frame (the range proto.go reserves for internal/repl)
	// that strays onto a client connection is refused like any unknown
	// type, and the session stays usable.
	var re *RemoteError
	if _, err := cl.roundTrip(Frame{Type: 0x41, Payload: make([]byte, 24)}); !errors.As(err, &re) ||
		!strings.Contains(re.Msg, "unknown frame type") {
		t.Fatalf("ship-typed frame: got %v, want RemoteError \"unknown frame type\"", err)
	}
	if _, err := cl.Query("SELECT count(k) FROM t"); err != nil {
		t.Fatalf("connection dead after a ship-typed frame: %v", err)
	}

	// Prepared statements execute by name and replay.
	if err := cl.Prepare("pt", "SELECT * FROM t WHERE k = 2"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		r, err := cl.ExecPrepared("pt")
		if err != nil {
			t.Fatal(err)
		}
		if r.Count != 1 {
			t.Fatalf("prepared exec %d returned %d rows", i, r.Count)
		}
	}
	if _, err := cl.ExecPrepared("nope"); err == nil {
		t.Fatal("exec of unknown prepared name succeeded")
	}

	// The process list shows this session with its statement counters.
	procs, err := cl.List()
	if err != nil {
		t.Fatal(err)
	}
	var me *session.ProcessInfo
	for i := range procs {
		if procs[i].ID == cl.SessionID {
			me = &procs[i]
		}
	}
	if me == nil {
		t.Fatalf("session %d missing from process list %+v", cl.SessionID, procs)
	}
	// Failed counts the missing-table query and the unknown prepared name.
	if me.Queries == 0 || me.Failed != 2 {
		t.Fatalf("process-list counters not advancing: %+v", *me)
	}
}

func TestServerOverPipe(t *testing.T) {
	tr := NewPipe()
	srv := startServer(t, tr, Config{})
	exerciseProtocol(t, tr, srv)
}

func TestServerOverTCP(t *testing.T) {
	tr := NewTCP("127.0.0.1:0")
	srv := startServer(t, tr, Config{})
	exerciseProtocol(t, tr, srv)
}

func TestServerKillAcrossConnections(t *testing.T) {
	tr := NewPipe()
	srv := startServer(t, tr, Config{})

	victim, err := Dial(tr)
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()
	killer, err := Dial(tr)
	if err != nil {
		t.Fatal(err)
	}
	defer killer.Close()

	found, err := killer.Kill(victim.SessionID)
	if err != nil || !found {
		t.Fatalf("kill: found=%v err=%v", found, err)
	}
	if found, err := killer.Kill(99999); err != nil || found {
		t.Fatalf("kill of unknown ID: found=%v err=%v", found, err)
	}

	// The victim's next statement fails with the relayed kill error; its
	// registry entry shows state Killed until the client hangs up.
	if _, err := victim.Query("SELECT 1 + 1"); err == nil {
		t.Fatal("killed session still executes")
	} else if !strings.Contains(err.Error(), session.ErrKilled.Error()) {
		t.Fatalf("kill error not relayed: %v", err)
	}
	if s := srv.Registry().Get(victim.SessionID); s == nil || s.Info().State != session.Killed {
		t.Fatal("killed session not lingering in process list")
	}
}

func TestServerAdmissionCap(t *testing.T) {
	tr := NewPipe()
	startServer(t, tr, Config{MaxSessions: 1})

	first, err := Dial(tr)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	if _, err := Dial(tr); err == nil {
		t.Fatal("second session admitted past cap")
	} else {
		var re *RemoteError
		if !errors.As(err, &re) {
			t.Fatalf("admission rejection not a RemoteError: %v", err)
		}
	}
}

func TestServerDisconnectFreesProcessList(t *testing.T) {
	tr := NewPipe()
	srv := startServer(t, tr, Config{})

	cl, err := Dial(tr)
	if err != nil {
		t.Fatal(err)
	}
	id := cl.SessionID
	if srv.Registry().Get(id) == nil {
		t.Fatal("session not registered")
	}
	// Abrupt close (no MsgClose): the server must still reap the session.
	cl.conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Registry().Get(id) != nil {
		if time.Now().After(deadline) {
			t.Fatal("session leaked after abrupt disconnect")
		}
		time.Sleep(time.Millisecond)
	}

	// Polite close: BYE is sent after the session is reaped, so the
	// process list is already empty when Client.Close returns.
	for i := 0; i < 200; i++ {
		cl, err := Dial(tr)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Close(); err != nil {
			t.Fatal(err)
		}
		if n := srv.Registry().Len(); n != 0 {
			t.Fatalf("close %d: %d sessions still registered after Client.Close", i, n)
		}
	}
}
