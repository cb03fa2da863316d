package session

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"mb2/internal/wal"
)

// Race-hammer for the checkpoint-quiesce vs. kill interplay (run under
// -race): workers stream auto-commit DML through their sessions, a killer
// hammers process-list kills, a checkpointer drives Registry.Checkpoint and
// a maintainer Registry.Maintain the whole time. The old engine-level
// quiesce was check-then-act — a checkpoint could observe zero active
// transactions and then snapshot while a freshly admitted statement
// (possibly one being killed that instant) was mid-write. With the registry
// gate, every checkpoint must succeed, the checkpoint epoch must advance
// exactly once per success, the admission counters must balance, and the
// final checkpoint image must replay to the exact surviving row set.
func TestCheckpointQuiesceKillRaceHammer(t *testing.T) {
	db, reg := testDB(t, 8)
	const workers = 4
	const stmtsPerWorker = 60

	var kills atomic.Uint64
	var wg sync.WaitGroup
	done := make(chan struct{})

	// Killer: a bounded hammer of kills across the live ID range, yielding
	// between attempts so the workers keep making progress.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for id := uint64(1); ; id++ {
			select {
			case <-done:
				return
			default:
			}
			if reg.Kill(id%64, ErrKilled) {
				kills.Add(1)
			}
			runtime.Gosched()
		}
	}()

	// Checkpointer: quiesce and snapshot repeatedly while the workload and
	// the kills are in full flight.
	var ckptOK uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := reg.Checkpoint(nil); err != nil {
				t.Errorf("checkpoint under quiesce gate failed: %v", err)
				return
			}
			ckptOK++
			runtime.Gosched()
		}
	}()

	// Maintainer: on-demand passes, as the -listen ticker runs them, racing
	// the workers' Finished counts and the checkpoints for the same gate.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := reg.Maintain(); err != nil {
				t.Errorf("maintenance pass: %v", err)
				return
			}
			runtime.Gosched()
		}
	}()

	var opened, execed atomic.Uint64
	var workerWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		workerWG.Add(1)
		go func(w int) {
			defer workerWG.Done()
			for i := 0; i < stmtsPerWorker; i++ {
				s, err := reg.Open(Options{Contenders: workers})
				if err != nil {
					t.Errorf("open: %v", err)
					return
				}
				opened.Add(1)
				q := fmt.Sprintf("INSERT INTO t VALUES (%d, %d, 1.5)", 1000+w*stmtsPerWorker+i, w)
				if _, _, err := s.ExecSQL(q); err == nil {
					execed.Add(1)
				} else if !errors.Is(err, ErrKilled) {
					t.Errorf("exec: %v", err)
				}
				s.Close()
			}
		}(w)
	}
	workerWG.Wait()
	close(done)
	wg.Wait()

	// Counter consistency: every worker session was admitted and closed
	// again; only the seeding session (already closed) preceded them.
	admitted, rejected, killed := reg.Counters()
	if rejected != 0 {
		t.Fatalf("unlimited registry rejected %d sessions", rejected)
	}
	if want := opened.Load() + 1; admitted != want {
		t.Fatalf("admitted = %d, want %d", admitted, want)
	}
	if killed != kills.Load() {
		t.Fatalf("killed counter %d, successful kill calls %d", killed, kills.Load())
	}
	if reg.Len() != 0 {
		t.Fatalf("%d sessions leaked in the process list", reg.Len())
	}

	// Epoch consistency: the log epoch advances exactly once per successful
	// checkpoint — a checkpoint torn by the race would leave them skewed.
	if reg.Checkpoints() != ckptOK {
		t.Fatalf("registry counted %d checkpoints, checkpointer saw %d", reg.Checkpoints(), ckptOK)
	}
	if got := db.WAL.Epoch(); got != ckptOK {
		t.Fatalf("WAL epoch %d after %d successful checkpoints", got, ckptOK)
	}

	// State consistency: one final quiesced checkpoint must capture exactly
	// the committed rows, and recovering from it (plus the empty log tail)
	// must agree with the live row count — no torn half-applied statements.
	st, err := reg.Checkpoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	live := int(db.RowCount("t"))
	if st.Rows != live {
		t.Fatalf("final checkpoint snapshotted %d rows, live table has %d", st.Rows, live)
	}
	ck, ok, err := wal.LastValidCheckpoint(db.CheckpointImage())
	if err != nil || !ok {
		t.Fatalf("final image: ok=%v err=%v", ok, err)
	}
	if len(ck.Records) != live || ck.Epoch != db.WAL.Epoch() {
		t.Fatalf("recovered checkpoint: %d records at epoch %d, want %d at %d",
			len(ck.Records), ck.Epoch, live, db.WAL.Epoch())
	}
}
