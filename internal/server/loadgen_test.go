package server

import (
	"testing"
)

// runLoadOnce spins up a fresh server over an in-proc pipe, loads the
// seed schema, and drives one seeded run.
func runLoadOnce(t *testing.T, cfg LoadConfig) (LoadResult, *Server) {
	t.Helper()
	tr := NewPipe()
	srv := startServer(t, tr, Config{Contenders: 4})
	admin, err := Dial(tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := SetupLoadSchema(admin); err != nil {
		t.Fatal(err)
	}
	admin.Close()
	res, err := RunLoad(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, srv
}

// TestLoadGenThousandSessions is the acceptance run: at least 1000
// concurrent sessions over the in-proc transport, every statement
// succeeding, peak concurrency proven by the registry gauge.
func TestLoadGenThousandSessions(t *testing.T) {
	if testing.Short() {
		t.Skip("thousand-session soak skipped in -short")
	}
	cfg := LoadConfig{Sessions: 1000, Statements: 6, Seed: 42}
	res, srv := runLoadOnce(t, cfg)
	if res.Errors != 0 {
		t.Fatalf("%d statement errors", res.Errors)
	}
	if want := uint64(cfg.Sessions * cfg.Statements); res.Statements != want {
		t.Fatalf("executed %d statements, want %d", res.Statements, want)
	}
	// +1 covers the schema-setup admin session, which may or may not
	// overlap the barrier window.
	if peak := srv.Registry().Peak(); peak < cfg.Sessions {
		t.Fatalf("peak concurrent sessions %d, want >= %d", peak, cfg.Sessions)
	}
	if srv.Registry().Len() != 0 {
		t.Fatalf("%d sessions leaked after run", srv.Registry().Len())
	}
	if res.Throughput <= 0 || res.P50 <= 0 || res.P99 < res.P50 {
		t.Fatalf("implausible latency summary: %+v", res)
	}
}

// TestLoadGenReplayDigest pins the determinism contract: same seed means
// a bit-identical digest on a fresh database, and a different seed means
// a different one.
func TestLoadGenReplayDigest(t *testing.T) {
	cfg := LoadConfig{Sessions: 24, Statements: 20, Seed: 7}
	a, _ := runLoadOnce(t, cfg)
	b, _ := runLoadOnce(t, cfg)
	if a.Errors != 0 || b.Errors != 0 {
		t.Fatalf("statement errors: %d, %d", a.Errors, b.Errors)
	}
	if a.Digest != b.Digest {
		t.Fatalf("same seed diverged: %#x vs %#x", a.Digest, b.Digest)
	}
	cfg.Seed = 8
	c, _ := runLoadOnce(t, cfg)
	if c.Digest == a.Digest {
		t.Fatalf("different seed collided: %#x", c.Digest)
	}
}

// TestLoadGenStreamsDeterministic pins the statement streams themselves:
// session streams depend only on (seed, session index).
func TestLoadGenStreamsDeterministic(t *testing.T) {
	cfg := LoadConfig{Sessions: 4, Statements: 50, Seed: 99}
	for idx := 0; idx < cfg.Sessions; idx++ {
		a := sessionStream(cfg, idx)
		b := sessionStream(cfg, idx)
		if len(a) != cfg.Statements {
			t.Fatalf("stream length %d", len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("session %d statement %d differs", idx, i)
			}
		}
	}
	// Distinct sessions see distinct streams.
	if sessionStream(cfg, 0)[0] == sessionStream(cfg, 1)[0] &&
		sessionStream(cfg, 0)[1] == sessionStream(cfg, 1)[1] &&
		sessionStream(cfg, 0)[2] == sessionStream(cfg, 1)[2] {
		t.Fatal("session streams identical across indexes")
	}
}

// TestRunLoadRejectsEmptyRuns pins that a run with no sessions or no
// statements is an error, not a panic or a digest over nothing.
func TestRunLoadRejectsEmptyRuns(t *testing.T) {
	for _, cfg := range []LoadConfig{
		{Sessions: -1, Statements: 10},
		{Sessions: 0, Statements: 10},
		{Sessions: 3, Statements: -2},
		{Sessions: 3, Statements: 0},
	} {
		if _, err := RunLoad(NewPipe(), cfg); err == nil {
			t.Errorf("RunLoad(%d sessions x %d statements) ran without error", cfg.Sessions, cfg.Statements)
		}
	}
}
