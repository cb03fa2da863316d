package exec

import (
	"sync"

	"mb2/internal/engine"
	"mb2/internal/gc"
	"mb2/internal/ou"
	"mb2/internal/wal"
)

// RunGC performs one garbage-collection pass as a GC batch OU, with
// intervalUS the time since the previous pass (the batch OU's third
// feature).
func RunGC(ctx *Ctx, intervalUS float64) gc.RunStats {
	start := ctx.Tracker.Start()
	st := ctx.DB.GC.Run(ctx.Thread())
	feats := ou.GCFeatures(float64(st.TxnsProcessed), float64(st.VersionsPruned), intervalUS)
	ctx.Tracker.Stop(ou.GC, feats, start)
	return st
}

// RunLogSerialize drains the WAL record queue into log buffers as a
// LOG_SERIALIZE batch OU.
func RunLogSerialize(ctx *Ctx, intervalUS float64) wal.SerializeStats {
	start := ctx.Tracker.Start()
	st := ctx.DB.WAL.Serialize(ctx.Thread())
	feats := ou.LogSerializeFeatures(float64(st.Records), float64(st.Bytes), float64(st.Buffers), intervalUS)
	ctx.Tracker.Stop(ou.LogSerialize, feats, start)
	return st
}

// RunLogFlush writes sealed log buffers to the device as a LOG_FLUSH batch
// OU. A device error (crash) is reported alongside the partial stats; the
// OU record is still emitted for the work performed before the failure.
func RunLogFlush(ctx *Ctx, intervalUS float64) (wal.FlushStats, error) {
	start := ctx.Tracker.Start()
	st, err := ctx.DB.WAL.Flush(ctx.Thread())
	feats := ou.LogFlushFeatures(float64(st.Bytes), float64(st.Buffers), intervalUS)
	ctx.Tracker.Stop(ou.LogFlush, feats, start)
	return st, err
}

// Maintainer runs a database's background maintenance as one pass of the
// brackets above — LOG_SERIALIZE, LOG_FLUSH, an optional after-flush hook (a
// replication group's Sync), GC — every `every` finished write transactions
// (Finished) or on demand (Pass). The count and a pass's log half share one
// mutex, so a transaction finishing while the log is flushed waits for it:
// that wait bounds the WAL queue to about `every` write transactions'
// records and keeps the count exact, so a cadence replays under a seed. GC
// walks every row slot, so it runs after that mutex is released, one at a
// time on its own context: writers held back for it lost a tenth of their
// throughput, for a flush that costs them almost nothing.
type Maintainer struct {
	every      uint64
	afterFlush func() error

	mu       sync.Mutex // the count and the log half of a pass
	finished uint64
	logCtx   *Ctx

	gcMu  sync.Mutex // the GC half of a pass and the counters
	gcCtx *Ctx
	stats MaintainerStats
}

// MaintainerStats counts completed passes and their work.
type MaintainerStats struct {
	Passes, FlushedBytes, VersionsPruned uint64
}

// NewMaintainer returns a maintainer over db that passes every `every`
// finished write transactions (0: only on demand), calling afterFlush, if
// set, once each flush succeeds. Each half of a pass has its own context:
// its own thread and a tracker with no collector. The WAL learns the
// cadence (wal.Manager.DrainEvery), so the queue a pass drains is reused.
func NewMaintainer(db *engine.DB, every int, afterFlush func() error) *Maintainer {
	if every > 0 {
		db.WAL.DrainEvery(every)
	}
	return &Maintainer{every: uint64(every), afterFlush: afterFlush,
		logCtx: NewCtx(db, db.Machine.CPU), gcCtx: NewCtx(db, db.Machine.CPU)}
}

// Finished counts one finished write transaction, committed or aborted
// (both enqueued redo records), and returns the error of the pass it
// triggers when it is the every-th.
func (m *Maintainer) Finished() error {
	m.mu.Lock()
	m.finished++
	if m.every == 0 || m.finished%m.every != 0 {
		m.mu.Unlock()
		return nil
	}
	return m.pass()
}

// Pass runs one pass now and returns its first error; a crashed log device
// comes back wrapping hw.ErrDeviceCrashed. A failed flush loses the buffers
// it was writing, as a crash would, so a later pass appends after a gap:
// once a pass fails, the instance is no longer durable.
func (m *Maintainer) Pass() error {
	m.mu.Lock()
	return m.pass()
}

// pass runs with m.mu held and releases it once the log half is done. The
// batch OUs' interval feature is 0: nothing prices the passes yet.
func (m *Maintainer) pass() error {
	RunLogSerialize(m.logCtx, 0)
	fl, err := RunLogFlush(m.logCtx, 0)
	if err == nil && m.afterFlush != nil {
		err = m.afterFlush()
	}
	m.mu.Unlock()
	if err != nil {
		return err
	}
	m.gcMu.Lock()
	defer m.gcMu.Unlock()
	m.stats.FlushedBytes += uint64(fl.Bytes)
	m.stats.VersionsPruned += uint64(RunGC(m.gcCtx, 0).VersionsPruned)
	m.stats.Passes++
	return nil
}

// Stats returns the maintainer's counters, waiting out a running GC.
func (m *Maintainer) Stats() MaintainerStats {
	m.gcMu.Lock()
	defer m.gcMu.Unlock()
	return m.stats
}
