package engine

import (
	"fmt"

	"mb2/internal/hw"
	"mb2/internal/storage"
	"mb2/internal/wal"
)

// CheckpointStats describes one completed checkpoint.
type CheckpointStats struct {
	// Epoch is the new log-segment epoch the checkpoint started.
	Epoch uint64
	// SnapshotTS is the commit timestamp the snapshot captured.
	SnapshotTS uint64
	// Rows is the number of visible rows snapshotted.
	Rows int
	// ImageBytes is the encoded checkpoint size: the device's whole
	// contents once the checkpoint is published.
	ImageBytes int
	// LogBytesTruncated is how much durable log the truncation discarded.
	LogBytesTruncated int
}

// Checkpoint snapshots all committed table state to the checkpoint device
// and truncates the log, bounding both recovery time and device growth: the
// device holds exactly one image, the log only what committed after it.
// The protocol is crash-safe at every step:
//
//  1. Quiesce: the caller must have no active transactions (error
//     otherwise) — the snapshot must not race in-flight writes.
//  2. Drain: serialize and flush every pending WAL record, so the log is
//     a complete image of the snapshot's history before it is replaced.
//  3. Snapshot: scan every table at LastCommitTS in catalog order and
//     encode one insert frame per visible row, straight from the scan into
//     one image buffer sized from the tables' row counts.
//  4. Publish: switch the checkpoint device to the new image (header +
//     CRC-protected payload) with the device's atomic Reset. A crash during
//     the switch leaves the previous image whole, beside the log that
//     extends it: recovery sees the old image with the old log.
//  5. Truncate: reset the log to an empty segment at epoch+1. A crash
//     before this step leaves the new image with the old log at the old
//     epoch; recovery sees log epoch < checkpoint epoch and skips the log,
//     which the new checkpoint fully covers. A crash during the truncation
//     leaves the old log (the log device's Reset is atomic too), and a torn
//     first flush after it a log with no readable header: nothing to replay.
//
// Scan, encode, and device writes are charged to th.
func (db *DB) Checkpoint(th *hw.Thread) (CheckpointStats, error) {
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	var st CheckpointStats

	if n := db.Txns.ActiveCount(); n != 0 {
		return st, fmt.Errorf("engine: checkpoint requires quiesce (%d active transactions)", n)
	}
	// Drain the WAL so the current log covers everything the snapshot sees.
	db.WAL.Serialize(th)
	if _, err := db.WAL.Flush(th); err != nil {
		return st, fmt.Errorf("engine: checkpoint flush: %w", err)
	}

	st.Epoch = db.WAL.Epoch() + 1
	st.SnapshotTS = db.Txns.LastCommitTS()
	var tables []*storage.Table
	size := 0
	for _, name := range db.Catalog.Tables() {
		if t := db.Table(name); t != nil {
			tables = append(tables, t)
			size += t.NumRows() * wal.RowFrameLen(t.Meta.Schema)
		}
	}
	enc := wal.NewCheckpointEncoder(nil, size)
	for _, t := range tables {
		tid := int32(t.Meta.ID)
		t.Scan(th, 0, st.SnapshotTS, func(row storage.RowID, data storage.Tuple) bool {
			enc.Add(tid, int64(row), data)
			return true
		})
	}
	st.Rows = enc.Rows()

	img := enc.Finish(st.Epoch, st.SnapshotTS)
	st.ImageBytes = len(img)
	if th != nil {
		th.SeqWrite(float64(len(img))/64, 64)
	}
	if err := db.ckptDev.Reset(img); err != nil {
		return st, fmt.Errorf("engine: checkpoint write: %w", err)
	}
	if th != nil {
		th.WriteBlocks(float64((len(img) + hw.BlockBytes - 1) / hw.BlockBytes))
	}

	st.LogBytesTruncated = db.WAL.Device().Len()
	if err := db.WAL.ResetLog(st.Epoch); err != nil {
		return st, fmt.Errorf("engine: checkpoint truncate: %w", err)
	}
	return st, nil
}

// CheckpointImage returns a copy of the durable checkpoint-device contents,
// the last published image: the ckptImage input to RecoverImages.
func (db *DB) CheckpointImage() []byte {
	return db.ckptDev.Contents()
}

// CheckpointViews appends the last published image to dst as read-only
// views of the checkpoint device's chunks (hw.BlockDevice.Views): the read of
// a shipper that sends the image without copying it.
func (db *DB) CheckpointViews(dst [][]byte) [][]byte {
	return db.ckptDev.Views(dst, 0)
}
