// Command mb2-server hoists the engine behind a multi-session front end:
// a framed wire protocol (over TCP or a deterministic in-process pipe)
// terminating in real sessions — admission control, per-session prepared
// statements and plan caches, a process list with kill — plus a seeded
// load generator whose runs replay bit for bit.
//
// Usage:
//
//	mb2-server -listen ADDR [-max-sessions N]
//	mb2-server -loadgen [-sessions N] [-statements N] [-seed N] [-verify]
//	mb2-server -repl N [-txns N] [-seed N] [-verify]
//
// With -listen, the server accepts framed-protocol clients on a TCP
// address until interrupted; the database starts empty and clients build
// schema over the wire. With -loadgen, an in-process server is driven by
// N concurrent seeded sessions; -verify replays the run against a fresh
// engine and fails unless the result digest matches bit for bit. With
// -repl, a seeded committed workload ships its WAL to N staggered replicas
// over the same framed transport; the server prints per-replica staleness,
// promotes the least-stale replica, and verifies the promoted state against
// the primary (and, with -verify, that a full re-run reproduces the promoted
// digest bit for bit).
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/exec"
	"mb2/internal/server"
)

func main() {
	listen := flag.String("listen", "", "serve the framed protocol on this TCP address")
	maxSessions := flag.Int("max-sessions", 0, "listen: admission cap on concurrent sessions (0 = unlimited)")
	loadgen := flag.Bool("loadgen", false, "run the seeded load generator against an in-process server")
	sessions := flag.Int("sessions", 1000, "loadgen: concurrent sessions")
	statements := flag.Int("statements", 10, "loadgen: statements per session")
	seed := flag.Int64("seed", 1, "loadgen/repl: deterministic seed")
	verify := flag.Bool("verify", false, "loadgen/repl: replay on a fresh engine and fail unless the digest reproduces bit for bit")
	replicas := flag.Int("repl", 0, "ship the WAL of a seeded committed workload to N replicas, then promote the least stale")
	txns := flag.Int("txns", 60, "repl: committed transactions to ship")
	flag.Parse()

	switch {
	case *listen != "":
		if err := serveTCP(*listen, *maxSessions); err != nil {
			log.Fatalf("mb2-server: %v", err)
		}
	case *replicas > 0:
		if err := runRepl(*replicas, *txns, *seed, *verify); err != nil {
			log.Fatalf("mb2-server: %v", err)
		}
	case *loadgen:
		if err := runLoadgen(*sessions, *statements, *seed, *verify); err != nil {
			log.Fatalf("mb2-server: %v", err)
		}
	default:
		log.Fatal("mb2-server: one of -listen, -loadgen, or -repl is required")
	}
}

// serveTCP blocks serving the framed protocol on addr.
func serveTCP(addr string, maxSessions int) error {
	tr := server.NewTCP(addr)
	ln, err := tr.Listen()
	if err != nil {
		return err
	}
	srv := server.New(engine.Open(catalog.DefaultKnobs()), server.Config{MaxSessions: maxSessions})
	// Sessions run a maintenance pass every so many write transactions; the
	// ticker, running as long as the process serves, makes an idle server's
	// last commits durable too.
	go func() {
		for range time.Tick(100 * time.Millisecond) {
			if _, err := srv.Registry().Maintain(); err != nil {
				log.Printf("mb2-server: maintenance pass: %v", err)
			}
		}
	}()
	fmt.Printf("mb2-server listening on %s (max sessions: %d, 0 = unlimited)\n", ln.Addr(), maxSessions)
	return srv.Serve(ln)
}

// loadRun executes one seeded load-generator run against a fresh
// in-process server and returns its result and the registry maintainer's
// counters after one final pass, the pass an idle server's ticker would run.
func loadRun(cfg server.LoadConfig) (server.LoadResult, exec.MaintainerStats, error) {
	tr := server.NewPipe()
	srv := server.New(engine.Open(catalog.DefaultKnobs()), server.Config{})
	ln, err := tr.Listen()
	if err != nil {
		return server.LoadResult{}, exec.MaintainerStats{}, err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-done
	}()

	admin, err := server.Dial(tr)
	if err != nil {
		return server.LoadResult{}, exec.MaintainerStats{}, err
	}
	if err := server.SetupLoadSchema(admin); err != nil {
		return server.LoadResult{}, exec.MaintainerStats{}, err
	}
	admin.Close()
	res, err := server.RunLoad(tr, cfg)
	if err != nil {
		return server.LoadResult{}, exec.MaintainerStats{}, err
	}
	res.Peak = srv.Registry().Peak()
	maint, err := srv.Registry().Maintain()
	return res, maint, err
}

func printLoad(res server.LoadResult, maint exec.MaintainerStats) {
	fmt.Printf("sessions: %d (peak concurrent: %d)\n", res.Sessions, res.Peak)
	fmt.Printf("statements: %d (%d errors)\n", res.Statements, res.Errors)
	fmt.Printf("wall: %v  throughput: %.0f stmt/s\n", res.Elapsed.Round(0), res.Throughput)
	fmt.Printf("latency p50: %v  p99: %v\n", res.P50, res.P99)
	fmt.Printf("maintainer: %d passes, %d bytes flushed, %d versions pruned\n",
		maint.Passes, maint.FlushedBytes, maint.VersionsPruned)
	fmt.Printf("run digest: %#x\n", res.Digest)
}

func runLoadgen(sessions, statements int, seed int64, verify bool) error {
	cfg := server.LoadConfig{Sessions: sessions, Statements: statements, Seed: seed}
	fmt.Printf("== seeded load generator (seed %d, %d sessions x %d statements, in-proc transport) ==\n",
		seed, sessions, statements)
	res, maint, err := loadRun(cfg)
	if err != nil {
		return err
	}
	printLoad(res, maint)
	if res.Errors > 0 {
		return fmt.Errorf("%d statements failed", res.Errors)
	}
	if verify {
		replay, _, err := loadRun(cfg)
		if err != nil {
			return fmt.Errorf("verify replay: %w", err)
		}
		if replay.Digest != res.Digest {
			return fmt.Errorf("verify FAILED: replay digest %#x vs %#x", replay.Digest, res.Digest)
		}
		fmt.Printf("\nverify: replay reproduced digest %#x across %d sessions\n", res.Digest, sessions)
	}
	return nil
}
