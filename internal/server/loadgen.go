package server

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"mb2/internal/fold"
)

// LoadConfig parameterizes one seeded load-generator run.
type LoadConfig struct {
	// Sessions is the number of concurrent client sessions.
	Sessions int
	// Statements is the number of statements each session executes.
	Statements int
	// Seed drives every session's statement stream; same seed, same
	// streams, same digest.
	Seed int64
}

// seedRows sizes the read-only seed table region.
const seedRows = 512

// LoadResult summarizes a run. Digest covers only statement outcomes —
// never timing — so replays with the same seed compare bit for bit.
type LoadResult struct {
	Sessions   int
	Statements uint64
	Errors     uint64
	// Digest folds every session's statement outcomes in session-index
	// order (row counts and order-insensitive row digests).
	Digest uint64
	// Peak is the server's peak concurrent-session gauge after the run.
	Peak int

	Elapsed time.Duration
	// Throughput is statements per second over the whole run.
	Throughput float64
	// P50 and P99 are client-observed per-statement latencies.
	P50, P99 time.Duration
}

// ownBase returns the first key of session i's private write range. Each
// session writes only keys it owns and reads only the seed region or its
// own writes, so statement results never depend on how concurrent
// sessions interleave — the property that makes the digest replayable.
func (c LoadConfig) ownBase(i int) int {
	return seedRows + i*c.Statements
}

// SetupLoadSchema creates and populates the load generator's table
// through a client connection: a read-only seed region of `kv` rows that
// every session queries.
func SetupLoadSchema(cl *Client) error {
	if _, err := cl.Query("CREATE TABLE kv (k INT, grp INT, v FLOAT)"); err != nil {
		return err
	}
	for i := 0; i < seedRows; i += 8 {
		stmt := "INSERT INTO kv VALUES "
		for j := i; j < i+8 && j < seedRows; j++ {
			if j > i {
				stmt += ", "
			}
			stmt += fmt.Sprintf("(%d, %d, %d.25)", j, j%13, j)
		}
		if _, err := cl.Query(stmt); err != nil {
			return err
		}
	}
	return nil
}

// splitmix64 advances a tiny deterministic PRNG state — enough stream
// quality for statement selection without math/rand allocation overhead.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// sessionStream is one session's deterministic statement list.
func sessionStream(cfg LoadConfig, idx int) []string {
	h := fold.New()
	fmt.Fprintf(&h, "loadgen/session/%d", idx)
	state := uint64(cfg.Seed) ^ h.Sum64()
	base := cfg.ownBase(idx)
	written := 0
	out := make([]string, 0, cfg.Statements)
	for i := 0; i < cfg.Statements; i++ {
		r := splitmix64(&state)
		switch r % 4 {
		case 0: // point lookup in the read-only seed region
			out = append(out, fmt.Sprintf("SELECT * FROM kv WHERE k = %d", r>>8%seedRows))
		case 1: // aggregate over the seed region (writes are filtered out)
			out = append(out, fmt.Sprintf(
				"SELECT grp, sum(v) FROM kv WHERE k < %d AND grp = %d GROUP BY grp",
				seedRows, r>>8%13))
		case 2: // insert into this session's private key range
			k := base + written
			written++
			out = append(out, fmt.Sprintf("INSERT INTO kv VALUES (%d, %d, %d.5)", k, k%13, k))
		default: // count this session's own writes so far
			out = append(out, fmt.Sprintf(
				"SELECT count(k) FROM kv WHERE k >= %d AND k < %d",
				base, base+cfg.Statements))
		}
	}
	return out
}

// sessionOutcome is one session's digestable result.
type sessionOutcome struct {
	digest uint64
	errs   uint64
	stmts  uint64
}

// foldOutcome hashes one statement's result into a session digest.
func foldOutcome(digest uint64, stmt int, r RowsResult, failed bool) uint64 {
	return fold.New().U64(digest).U64(uint64(stmt)<<1 | boolBit(failed)).U64(r.Count).Byte(0).U64(r.Digest).Sum64()
}

func boolBit(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// RunLoad drives cfg.Sessions concurrent client sessions over tr against
// a serving server. All sessions connect before any statement runs (the
// start barrier), so the server's peak-session gauge proves the
// concurrency level. The caller must have run SetupLoadSchema first.
func RunLoad(tr Transport, cfg LoadConfig) (LoadResult, error) {
	if cfg.Sessions < 1 || cfg.Statements < 1 {
		return LoadResult{}, fmt.Errorf("loadgen: need at least one session and one statement per session, got %d x %d",
			cfg.Sessions, cfg.Statements)
	}
	clients := make([]*Client, cfg.Sessions)
	for i := range clients {
		cl, err := Dial(tr)
		if err != nil {
			for _, c := range clients[:i] {
				c.Close()
			}
			return LoadResult{}, fmt.Errorf("dial session %d: %w", i, err)
		}
		clients[i] = cl
	}

	outcomes := make([]sessionOutcome, cfg.Sessions)
	latencies := make([][]time.Duration, cfg.Sessions)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			defer clients[idx].Close()
			stream := sessionStream(cfg, idx)
			lats := make([]time.Duration, 0, len(stream))
			var out sessionOutcome
			<-start
			for si, stmt := range stream {
				t0 := time.Now()
				r, err := clients[idx].Query(stmt)
				lats = append(lats, time.Since(t0))
				out.stmts++
				if err != nil {
					out.errs++
					out.digest = foldOutcome(out.digest, si, RowsResult{}, true)
					continue
				}
				out.digest = foldOutcome(out.digest, si, r, false)
			}
			outcomes[idx] = out
			latencies[idx] = lats
		}(i)
	}

	t0 := time.Now()
	close(start)
	wg.Wait()
	elapsed := time.Since(t0)

	res := LoadResult{Sessions: cfg.Sessions, Elapsed: elapsed}
	var all []time.Duration
	for i, out := range outcomes {
		res.Statements += out.stmts
		res.Errors += out.errs
		// Session-index order: the digest is independent of which
		// goroutine finished first.
		res.Digest = fold.New().U64(res.Digest).U64(out.digest).Sum64()
		all = append(all, latencies[i]...)
	}
	if elapsed > 0 {
		res.Throughput = float64(res.Statements) / elapsed.Seconds()
	}
	if len(all) > 0 {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		res.P50 = all[len(all)/2]
		res.P99 = all[len(all)*99/100]
	}
	return res, nil
}
