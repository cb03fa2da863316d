package check

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"mb2/internal/engine"
	"mb2/internal/hw"
	"mb2/internal/wal"
	"mb2/internal/workload"
)

// runOn runs the workload, unshipped, on a fresh instance whose log lives on
// logDev (nil: a clean MemDevice).
func runOn(cfg CrashConfig, w workload.Stream, logDev hw.BlockDevice) (*engine.DB, uint64, error) {
	db, tables, err := newCrashDB(cfg, w, logDev, nil)
	if err != nil {
		return nil, 0, err
	}
	commits, _, err := runCrashWorkload(cfg, w, db, tables, nil)
	return db, commits, err
}

// Crash at every byte offset of the durable log: SmallBank-style workload.
func TestCrashEveryByteSmallBank(t *testing.T) {
	rep, err := RunCrash(CrashConfig{Seed: 1, Workload: "smallbank"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Offsets != rep.LogBytes+1 {
		t.Fatalf("verified %d offsets over %d log bytes", rep.Offsets, rep.LogBytes)
	}
	if rep.TornOffsets == 0 {
		t.Fatal("an every-byte sweep must hit torn tails")
	}
	if rep.LastCommitTS != rep.Commits {
		t.Fatalf("full image recovered ts %d, committed %d", rep.LastCommitTS, rep.Commits)
	}
}

// Crash at every byte offset: TATP workload with forwarding-entry churn.
func TestCrashEveryByteTATP(t *testing.T) {
	rep, err := RunCrash(CrashConfig{Seed: 2, Workload: "tatp"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Offsets != rep.LogBytes+1 || rep.TornOffsets == 0 {
		t.Fatalf("offsets=%d log=%d torn=%d", rep.Offsets, rep.LogBytes, rep.TornOffsets)
	}
}

// Strided sweep across a seed × workload matrix keeps broad coverage cheap.
func TestCrashMatrixStrided(t *testing.T) {
	for _, workload := range []string{"smallbank", "tatp"} {
		for seed := int64(3); seed <= 6; seed++ {
			if _, err := RunCrash(CrashConfig{
				Seed: seed, Workload: workload, Txns: 30, Stride: 7,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// Partitioned crash matrix: partition-count × workload × seed, with every
// recovered instance re-routing its replayed rows and the merged partition
// stripes matching the commit oracle at every swept offset.
func TestCrashPartitionedMatrix(t *testing.T) {
	for _, parts := range []int{2, 4, 8} {
		for _, workload := range []string{"smallbank", "tatp"} {
			for seed := int64(3); seed <= 4; seed++ {
				parts, workload, seed := parts, workload, seed
				t.Run(fmt.Sprintf("parts=%d,%s,seed=%d", parts, workload, seed), func(t *testing.T) {
					t.Parallel()
					rep, err := RunCrash(CrashConfig{
						Seed: seed, Workload: workload, Partitions: parts,
						Txns: 40, Stride: 5,
					})
					if err != nil {
						t.Fatal(err)
					}
					if rep.Partitions != parts {
						t.Fatalf("report says %d partitions, want %d", rep.Partitions, parts)
					}
					if rep.Commits == 0 || rep.Offsets == 0 {
						t.Fatalf("empty sweep: %+v", rep)
					}
				})
			}
		}
	}
}

// A partitioned sweep recovers exactly the same committed state as the
// unpartitioned sweep of the identical workload: partitioning is pure
// routing and must never change recovery semantics.
func TestCrashPartitionedRecoveryEquivalence(t *testing.T) {
	for _, workload := range []string{"smallbank", "tatp"} {
		plain, err := RunCrash(CrashConfig{Seed: 37, Workload: workload, Stride: 97})
		if err != nil {
			t.Fatal(err)
		}
		parted, err := RunCrash(CrashConfig{Seed: 37, Workload: workload, Stride: 97, Partitions: 4})
		if err != nil {
			t.Fatal(err)
		}
		if plain.FinalDigest != parted.FinalDigest {
			t.Fatalf("%s: partitioned recovery digest %x, unpartitioned %x",
				workload, parted.FinalDigest, plain.FinalDigest)
		}
		if plain.LastCommitTS != parted.LastCommitTS || plain.Commits != parted.Commits {
			t.Fatalf("%s: commit accounting diverged: %+v vs %+v", workload, parted, plain)
		}
	}
}

// Crash offsets into the post-checkpoint log: recovery layers the torn log
// tail on top of the checkpoint image.
func TestCrashEveryByteAfterCheckpoint(t *testing.T) {
	rep, err := RunCrash(CrashConfig{Seed: 7, Workload: "smallbank", CheckpointAfter: 15})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Checkpointed {
		t.Fatal("run did not checkpoint")
	}
	if rep.LastCommitTS != rep.Commits {
		t.Fatalf("full recovery ts %d, committed %d", rep.LastCommitTS, rep.Commits)
	}
}

// A checkpointed run must recover to exactly the same state as an
// uncheckpointed run of the same workload.
func TestCheckpointRecoveryEquivalence(t *testing.T) {
	for _, workload := range []string{"smallbank", "tatp"} {
		plain, err := RunCrash(CrashConfig{Seed: 11, Workload: workload, Stride: 97})
		if err != nil {
			t.Fatal(err)
		}
		ckpt, err := RunCrash(CrashConfig{Seed: 11, Workload: workload, Stride: 97, CheckpointAfter: 12})
		if err != nil {
			t.Fatal(err)
		}
		if plain.FinalDigest != ckpt.FinalDigest {
			t.Fatalf("%s: checkpointed recovery digest %x, uncheckpointed %x",
				workload, ckpt.FinalDigest, plain.FinalDigest)
		}
		if plain.LastCommitTS != ckpt.LastCommitTS {
			t.Fatalf("%s: commit ts %d vs %d", workload, ckpt.LastCommitTS, plain.LastCommitTS)
		}
	}
}

// A real device crash mid-run leaves exactly the golden image's prefix: the
// every-byte sweep's sliced prefixes are faithful stand-ins for injected
// crashes.
func TestFaultDeviceCrashMatchesSlicedPrefix(t *testing.T) {
	cfg := CrashConfig{Seed: 13, Workload: "smallbank"}
	cfg.Txns = 40
	cfg.FlushEvery = 3
	w := workload.SmallBank{}.Stream(cfg.Seed, cfg.Txns)

	golden, _, err := runOn(cfg, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	img := golden.WAL.Durable()

	for _, at := range []int{0, 1, len(img) / 3, len(img) / 2, len(img) - 1} {
		plan := hw.NoFaults()
		plan.CrashAtByte = int64(at)
		dev := hw.NewFaultDevice(nil, plan)
		if _, _, err := runOn(cfg, w, dev); err != nil {
			t.Fatalf("crash at %d: %v", at, err)
		}
		if !dev.Crashed() {
			t.Fatalf("crash at %d: device never crashed", at)
		}
		if !bytes.Equal(dev.Contents(), img[:at]) {
			t.Fatalf("crash at %d: durable image %d bytes diverges from golden prefix",
				at, len(dev.Contents()))
		}
	}
}

// A device that silently drops the tail of the flush stream (lost writes at
// an append boundary) still recovers a clean committed prefix.
func TestCrashDropTailRecovers(t *testing.T) {
	cfg := CrashConfig{Seed: 17, Workload: "tatp"}
	cfg.Txns = 40
	cfg.FlushEvery = 3
	w := workload.TATP{}.Stream(cfg.Seed, cfg.Txns)

	plan := hw.NoFaults()
	plan.DropFromAppend = 5
	dev := hw.NewFaultDevice(nil, plan)
	if _, _, err := runOn(cfg, w, dev); err != nil {
		t.Fatal(err)
	}
	img := dev.Contents()

	fresh, tables, err := newCrashDB(cfg, w, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := fresh.RecoverImages(nil, nil, img)
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed == 0 {
		t.Fatal("dropped-tail log recovered nothing")
	}
	k := fresh.Txns.LastCommitTS()
	if err := workload.CaptureState(tables, k).Diff(w.ModelAfter(k)); err != nil {
		t.Fatal(err)
	}
}

// A bit flip in the middle of the log is caught by the frame CRC: recovery
// keeps the intact prefix and reports a torn tail instead of applying a
// corrupt record.
func TestCrashBitFlipStopsReplay(t *testing.T) {
	cfg := CrashConfig{Seed: 19, Workload: "smallbank"}
	cfg.Txns = 30
	cfg.FlushEvery = 3
	w := workload.SmallBank{}.Stream(cfg.Seed, cfg.Txns)

	golden, _, err := runOn(cfg, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	flipAt := int64(len(golden.WAL.Durable()) / 2)

	plan := hw.NoFaults()
	plan.FlipBitAtByte = flipAt
	dev := hw.NewFaultDevice(nil, plan)
	if _, _, err := runOn(cfg, w, dev); err != nil {
		t.Fatal(err)
	}

	fresh, tables, err := newCrashDB(cfg, w, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := fresh.RecoverImages(nil, nil, dev.Contents())
	if err != nil {
		t.Fatal(err)
	}
	if !st.TornTail {
		t.Fatal("mid-log bit flip must surface as a torn tail")
	}
	k := fresh.Txns.LastCommitTS()
	if err := workload.CaptureState(tables, k).Diff(w.ModelAfter(k)); err != nil {
		t.Fatal(err)
	}
	_, body, _, err := wal.ParseSegment(dev.Contents())
	if err != nil {
		t.Fatal(err)
	}
	records, _, _ := wal.DeserializePrefix(body)
	if got := wal.NumCommitted(records); got != st.Committed {
		t.Fatalf("replay applied %d commits, valid prefix holds %d", st.Committed, got)
	}
}

// Transient write failures are retried (with backoff charged to the flushing
// thread) and the workload completes with a full durable image.
func TestCrashTransientRetriesComplete(t *testing.T) {
	cfg := CrashConfig{Seed: 23, Workload: "smallbank"}
	cfg.Txns = 40
	cfg.FlushEvery = 3
	w := workload.SmallBank{}.Stream(cfg.Seed, cfg.Txns)

	golden, commits, err := runOn(cfg, w, nil)
	if err != nil {
		t.Fatal(err)
	}

	plan := hw.NoFaults()
	plan.TransientEvery = 2
	dev := hw.NewFaultDevice(nil, plan)
	db, faultCommits, err := runOn(cfg, w, dev)
	if err != nil {
		t.Fatal(err)
	}
	if faultCommits != commits {
		t.Fatalf("flaky device committed %d, clean run %d", faultCommits, commits)
	}
	retries, _ := db.WAL.FaultStats()
	if retries == 0 {
		t.Fatal("transient failures must be retried")
	}
	if !bytes.Equal(dev.Contents(), golden.WAL.Durable()) {
		t.Fatal("retried image diverges from clean image")
	}
}

// The crash sweep is deterministic: same config, same report.
func TestCrashRunDeterministic(t *testing.T) {
	run := func() *CrashReport {
		rep, err := RunCrash(CrashConfig{Seed: 29, Workload: "tatp", Txns: 25, Stride: 11})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if *a != *b {
		t.Fatalf("reports differ:\n%+v\n%+v", a, b)
	}
}

func TestCrashRejectsUnknownWorkload(t *testing.T) {
	if _, err := RunCrash(CrashConfig{Workload: "ycsb"}); err == nil {
		t.Fatal("unknown workload must error")
	}
	var rep *CrashReport
	rep, err := RunCrash(CrashConfig{Seed: 31, Txns: 12, Stride: 19})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workload != "smallbank" {
		t.Fatalf("default workload = %q", rep.Workload)
	}
	if errors.Is(err, nil) && rep.Commits == 0 {
		t.Fatal("no transactions committed")
	}
}
