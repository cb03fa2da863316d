package check

import (
	"errors"
	"fmt"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/exec"
	"mb2/internal/hw"
	"mb2/internal/storage"
	"mb2/internal/wal"
	"mb2/internal/workload"
)

// This file implements the crash-at-every-point property harness. A
// deterministic serial workload stream (workload.SmallBank or
// workload.TATP's Stream) runs against a live engine whose WAL lives on a
// block device; the resulting durable image is then cut at every byte
// offset — each cut is exactly the image a hw.FaultDevice crash at that
// offset leaves behind — and a fresh instance recovers from the cut. The
// recovered state must equal the stream's model oracle (ModelAfter) of
// every transaction whose commit record lies inside the valid prefix: no
// error at any offset, no lost committed transaction, no ghost uncommitted
// write.

// CrashConfig parameterizes one crash-recovery property run. Zero values
// select defaults sized so an every-byte sweep finishes quickly under
// -race.
type CrashConfig struct {
	Seed int64
	// Workload is "smallbank" (default) or "tatp".
	Workload string
	// Txns is the number of generated transactions (default 40; a handful
	// abort on purpose, so committed count is lower).
	Txns int
	// Stride is the crash-offset step over the durable log image (default
	// 1: every byte). The final full-image offset is always checked.
	Stride int
	// FlushEvery is how many transactions share one serialize+flush cycle
	// (default 3), so crash offsets land inside multi-transaction flushes.
	FlushEvery int
	// CheckpointAfter, when > 0, checkpoints the database once this many
	// transactions have committed; crash offsets then sweep the
	// post-checkpoint log and recovery starts from the checkpoint image.
	CheckpointAfter int
	// Partitions hash-partitions every workload table (<= 1 keeps them
	// unpartitioned). Each recovered instance is partitioned identically
	// and must re-route every replayed row correctly at every crash
	// offset.
	Partitions int
}

// CrashReport summarizes a successful crash sweep.
type CrashReport struct {
	Seed          int64
	Workload      string
	Partitions    int    // hash partitions per table (1 = unpartitioned)
	Txns          int    // transactions executed (committed + aborted)
	Commits       uint64 // committed transactions
	Offsets       int    // crash offsets recovered and verified
	TornOffsets   int    // offsets whose recovery reported a torn tail
	Checkpointed  bool
	LogBytes      int    // durable log size swept
	FinalDigest   uint64 // state digest recovered from the full image
	LastCommitTS  uint64 // commit timestamp recovered from the full image
	FlushFailures uint64 // transient flush retries absorbed (0 on MemDevice)
}

// --- execution ---------------------------------------------------------------

// newCrashDB opens the workload's schema on the given devices,
// hash-partitioning every table when the config asks for it.
func newCrashDB(cfg CrashConfig, w workload.Stream, logDev, ckptDev hw.BlockDevice) (*engine.DB, []*storage.Table, error) {
	knobs := catalog.DefaultKnobs()
	if cfg.Partitions > 1 {
		knobs.PartitionCount = cfg.Partitions
	}
	return w.Schema.Open(knobs, logDev, ckptDev)
}

// runCrashWorkload executes the whole stream on db with a maintenance pass
// every cfg.FlushEvery transactions, committed or aborted, and the optional
// mid-run checkpoint. ship, when set, runs after every flush: a pass with
// nothing to flush still ships, which is how the replicas receive a
// checkpoint and, from the run's second final pass, a cadence-lagged tail.
// A log-device crash ends the run cleanly — the crash is the point. It
// returns how many transactions committed and whether the device crashed.
func runCrashWorkload(cfg CrashConfig, w workload.Stream, db *engine.DB, tables []*storage.Table, ship func() error) (commits uint64, crashed bool, err error) {
	m := exec.NewMaintainer(db, cfg.FlushEvery, ship)
	checkpointed := false
	for _, ct := range w.Txns {
		if err := workload.Apply(db, tables, ct); err != nil {
			return commits, false, err
		}
		if !ct.Abort {
			commits++
		}
		if err = m.Finished(); err != nil {
			break
		}
		if cfg.CheckpointAfter > 0 && !checkpointed && commits >= uint64(cfg.CheckpointAfter) {
			checkpointed = true
			if err = m.Pass(); err == nil {
				if _, err = db.Checkpoint(nil); err == nil {
					err = m.Pass()
				}
			}
			if err != nil {
				break
			}
		}
	}
	for i := 0; i < 2 && err == nil; i++ {
		err = m.Pass()
	}
	if errors.Is(err, hw.ErrDeviceCrashed) {
		return commits, true, nil
	}
	return commits, false, err
}

// --- the sweep ---------------------------------------------------------------

func generate(cfg CrashConfig) (workload.Stream, error) {
	switch cfg.Workload {
	case "", "smallbank":
		return workload.SmallBank{}.Stream(cfg.Seed, cfg.Txns), nil
	case "tatp":
		return workload.TATP{}.Stream(cfg.Seed, cfg.Txns), nil
	default:
		return workload.Stream{}, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
}

// RunCrash executes one crash-at-every-point property run: golden serial
// execution, then recovery verification at every crash offset into the
// durable log. Any violation is returned tagged with the seed, workload,
// and offset needed to replay it.
func RunCrash(cfg CrashConfig) (*CrashReport, error) {
	if cfg.Txns <= 0 {
		cfg.Txns = 40
	}
	if cfg.Stride <= 0 {
		cfg.Stride = 1
	}
	if cfg.FlushEvery <= 0 {
		cfg.FlushEvery = 3
	}
	w, err := generate(cfg)
	if err != nil {
		return nil, err
	}
	fail := func(offset int, err error) error {
		return fmt.Errorf("crash: seed=%d workload=%s offset=%d: %w", cfg.Seed, w.Name, offset, err)
	}

	golden, goldenTables, err := newCrashDB(cfg, w, nil, nil)
	if err != nil {
		return nil, fail(-1, err)
	}
	commits, _, err := runCrashWorkload(cfg, w, golden, goldenTables, nil)
	if err != nil {
		return nil, fail(-1, err)
	}
	logImage := golden.WAL.Durable()
	ckptImage := golden.CheckpointImage()
	if cfg.CheckpointAfter <= 0 && len(ckptImage) != 0 {
		return nil, fail(-1, fmt.Errorf("unexpected checkpoint image (%d bytes)", len(ckptImage)))
	}

	// The live database must already match the oracle's full fold; if it
	// does not, the bug is in the workload or engine, not recovery.
	liveState := workload.CaptureState(goldenTables, golden.Txns.LastCommitTS())
	if err := liveState.Diff(w.ModelAfter(commits)); err != nil {
		return nil, fail(-1, fmt.Errorf("live state diverges from oracle: %w", err))
	}
	if err := golden.CheckIndexes(); err != nil {
		return nil, fail(-1, fmt.Errorf("live index: %w", err))
	}

	// Commits already durable via the checkpoint (recovery's replay base).
	ckptCommits := uint64(0)
	if ck, ok, err := wal.LastValidCheckpoint(ckptImage); err != nil {
		return nil, fail(-1, err)
	} else if ok {
		ckptCommits = ck.SnapshotTS
	}

	// The golden run's partitioning must itself be sound before any
	// recovered instance is compared against it.
	for _, tbl := range goldenTables {
		if err := checkPartitionScan(tbl, golden.Txns.LastCommitTS()); err != nil {
			return nil, fail(-1, err)
		}
	}

	report := &CrashReport{
		Seed: cfg.Seed, Workload: w.Name, Txns: len(w.Txns), Commits: commits,
		Partitions:   goldenTables[0].PartitionCount(),
		Checkpointed: cfg.CheckpointAfter > 0, LogBytes: len(logImage),
	}
	retries, _ := golden.WAL.FaultStats()
	report.FlushFailures = retries

	// The oracle's fold at each commit count, made once: every offset inside
	// one transaction's log records expects the same state.
	models := make(map[uint64]workload.State)
	verify := func(offset int) error {
		prefix := logImage[:offset]
		// The committed prefix the oracle expects: checkpointed commits
		// plus every commit record inside the valid region of the cut.
		tailK := uint64(0)
		if _, body, torn, err := wal.ParseSegment(prefix); err != nil {
			return err
		} else if !torn {
			records, _, _ := wal.DeserializePrefix(body)
			tailK = wal.NumCommitted(records)
		}
		k := ckptCommits + tailK

		fresh, freshTables, err := newCrashDB(cfg, w, nil, nil)
		if err != nil {
			return err
		}
		rth := hw.NewThread(fresh.Machine.CPU)
		st, err := fresh.RecoverImages(rth, ckptImage, prefix)
		if err != nil {
			return fmt.Errorf("recovery must tolerate any crash offset: %w", err)
		}
		if st.TornTail {
			report.TornOffsets++
		}
		if got := fresh.Txns.LastCommitTS(); got != k {
			return fmt.Errorf("recovered commit ts %d, oracle expects %d committed", got, k)
		}
		want, ok := models[k]
		if !ok {
			want = w.ModelAfter(k)
			models[k] = want
		}
		if err := workload.CaptureState(freshTables, k).Diff(want); err != nil {
			return err
		}
		// Recovery must re-route every replayed row: at every crash offset
		// the merged partition stripes expose exactly the global scan's
		// state, which is the oracle's.
		for _, tbl := range freshTables {
			if err := checkPartitionScan(tbl, k); err != nil {
				return err
			}
		}
		// Index rebuild agreement: every index holds exactly the visible
		// rows of its table.
		if err := fresh.CheckIndexes(); err != nil {
			return fmt.Errorf("rebuilt index: %w", err)
		}
		if offset == len(logImage) {
			report.FinalDigest = workload.CaptureState(freshTables, k).Digest()
			report.LastCommitTS = k
			if k != commits {
				return fmt.Errorf("full image recovered %d commits, golden run committed %d", k, commits)
			}
		}
		report.Offsets++
		return nil
	}

	for offset := 0; offset < len(logImage); offset += cfg.Stride {
		if err := verify(offset); err != nil {
			return nil, fail(offset, err)
		}
	}
	if err := verify(len(logImage)); err != nil {
		return nil, fail(len(logImage), err)
	}
	return report, nil
}
