package runner

import (
	"fmt"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/hw"
	"mb2/internal/metrics"
	"mb2/internal/ou"
	"mb2/internal/storage"
	"mb2/internal/wal"
)

// recoverySchema builds the sweep schema: an int64 key plus payloadCols
// int64 payload columns.
func recoverySchema(payloadCols int) catalog.Schema {
	cols := []catalog.Column{{Name: "k", Type: catalog.Int64}}
	for i := 0; i < payloadCols; i++ {
		cols = append(cols, catalog.Column{Name: fmt.Sprintf("c%d", i), Type: catalog.Int64})
	}
	return catalog.NewSchema(cols...)
}

// recoveryDB opens a fresh engine with the sweep schema and `indexes`
// secondary indexes (0, 1, or 2 — key column first, then the first payload
// column).
func recoveryDB(payloadCols, indexes int) *engine.DB {
	db := engine.OpenOnDevices(catalog.DefaultKnobs(), nil, nil)
	if _, err := db.CreateTable("t", recoverySchema(payloadCols)); err != nil {
		panic(err)
	}
	for i, col := range []string{"k", "c0"} {
		if i >= indexes {
			break
		}
		if _, _, err := db.CreateIndex(nil, db.Machine.CPU, "t_"+col, "t",
			[]string{col}, i == 0, 1); err != nil {
			panic(err)
		}
	}
	return db
}

// recoveryLoad commits `rows` single-insert transactions through the logged
// path and flushes, leaving a durable segment image holding all of them.
func recoveryLoad(db *engine.DB, rows, payloadCols int) {
	tbl := db.Table("t")
	for i := 0; i < rows; i++ {
		tx := db.Txns.Begin(nil)
		data := storage.Tuple{storage.NewInt(int64(i))}
		for c := 0; c < payloadCols; c++ {
			data = append(data, storage.NewInt(int64(i*(c+2))))
		}
		if _, err := db.Insert(tx, nil, tbl, data, 1); err != nil {
			panic(err)
		}
		if _, err := db.CommitLogged(tx, nil, nil); err != nil {
			panic(err)
		}
	}
	db.WAL.Serialize(nil)
	if _, err := db.WAL.Flush(nil); err != nil {
		panic(err)
	}
}

// recoveryUnits sweeps the three recovery OUs — log replay, index rebuild,
// and checkpoint write — over row count and payload width. Every unit
// performs the real work it labels: a replay of a durable segment onto a
// fresh engine, an index rebuild over the recovered heap, a checkpoint of a
// populated engine. Features are the exact quantities the planner knows at
// failover-decision time (pending records/commits/bytes, rows, index count,
// key bytes, tuple width), so training and inference see the same space.
func recoveryUnits(cfg Config) []SweepUnit {
	var units []SweepUnit
	for _, rows := range []int{16, 128, 1024, 8192} {
		if rows > cfg.MaxRows {
			continue
		}
		for _, payloadCols := range []int{1, 8} {
			rows, payloadCols := rows, payloadCols
			indexes := 1 + payloadCols/8 // 1 narrow-payload, 2 wide-payload
			units = append(units, SweepUnit{
				Name: fmt.Sprintf("recovery/rows=%d,payload=%d", rows, payloadCols),
				run: func(repo *metrics.Repository, cfg Config) {
					// REPLAY: redo the committed segment onto a fresh engine.
					measure(repo, cfg, func(col *metrics.Collector) {
						col.EnableOnly(ou.Replay)
						src := recoveryDB(payloadCols, 0)
						recoveryLoad(src, rows, payloadCols)
						_, body, _, err := wal.ParseSegment(src.WAL.Durable())
						if err != nil {
							panic(err)
						}
						records, _, _ := wal.DeserializePrefix(body)
						dst := recoveryDB(payloadCols, 0)
						tables := map[int32]*storage.Table{}
						t := dst.Table("t")
						tables[int32(t.Meta.ID)] = t
						th := hw.NewThread(cfg.CPU)
						start := th.Counters()
						if _, _, err := wal.ReplayRange(th, records, tables, 0, 0); err != nil {
							panic(err)
						}
						col.Emit(ou.Replay, ou.ReplayFeatures(
							float64(len(records)), float64(wal.NumCommitted(records)), float64(len(body))),
							th.Since(start))
					})
					// INDEX_REBUILD: rebuild secondary structures over the heap.
					measure(repo, cfg, func(col *metrics.Collector) {
						col.EnableOnly(ou.IndexRebuild)
						db := recoveryDB(payloadCols, indexes)
						recoveryLoad(db, rows, payloadCols)
						th := hw.NewThread(cfg.CPU)
						start := th.Counters()
						n, idxRows := db.RebuildIndexes(th)
						col.Emit(ou.IndexRebuild, ou.IndexRebuildFeatures(
							float64(idxRows/max(n, 1)), float64(n), float64(idxRows*8)),
							th.Since(start))
					})
					// CHECKPOINT: snapshot the populated engine to its device.
					measure(repo, cfg, func(col *metrics.Collector) {
						col.EnableOnly(ou.CheckpointWrite)
						db := recoveryDB(payloadCols, 0)
						recoveryLoad(db, rows, payloadCols)
						th := hw.NewThread(cfg.CPU)
						start := th.Counters()
						if _, err := db.Checkpoint(th); err != nil {
							panic(err)
						}
						col.Emit(ou.CheckpointWrite, ou.CheckpointFeatures(
							float64(rows), float64(db.Table("t").Meta.Schema.TupleBytes())),
							th.Since(start))
					})
				},
			})
		}
	}
	return units
}
