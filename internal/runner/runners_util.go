package runner

import (
	"fmt"

	"mb2/internal/catalog"
	"mb2/internal/exec"
	"mb2/internal/metrics"
	"mb2/internal/ou"
	"mb2/internal/plan"
	"mb2/internal/storage"
	"mb2/internal/txn"
	"mb2/internal/wal"
)

// indexBuildUnits sweeps table size, key cardinality, and build parallelism
// for the contending INDEX_BUILD OU. Repetitions are reduced because every
// build needs a fresh database. One unit per (rows, cardFrac, threads)
// cell, matching the serial sweep's per-cell index-name sequence.
func indexBuildUnits(cfg Config) []SweepUnit {
	var units []SweepUnit
	for _, rows := range rowLadder(cfg.MaxRows) {
		if rows < 128 {
			continue
		}
		for _, cardFrac := range []float64{0.01, 0.5, 1.0} {
			card := int(float64(rows)*cardFrac) + 1
			for _, threads := range []int{1, 2, 4, 8, 16} {
				units = append(units, SweepUnit{
					Name: fmt.Sprintf("index_build/rows=%d,card=%d,threads=%d", rows, card, threads),
					run: func(repo *metrics.Repository, cfg Config) {
						buildCfg := cfg
						buildCfg.Repetitions = cfg.Repetitions/3 + 1
						buildCfg.Warmups = 0
						seq := 0
						measure(repo, buildCfg, func(col *metrics.Collector) {
							col.EnableOnly(ou.IndexBuild)
							db := scratchDB(cfg, "t", rows, 1, card)
							name := fmt.Sprintf("ib_%d_%d_%d_%d", rows, card, threads, seq)
							seq++
							if _, _, err := db.CreateIndex(col, cfg.CPU, name, "t", []string{"grp"}, false, threads); err != nil {
								panic(err)
							}
						})
					},
				})
			}
		}
	}
	return units
}

// gcUnits sweeps transaction volume and version churn for the GC batch OU.
// One unit per (rows, updateFrac) cell.
func gcUnits(cfg Config) []SweepUnit {
	var units []SweepUnit
	for _, rows := range rowLadder(cfg.MaxRows / 4) {
		for _, updateFrac := range []float64{0.05, 0.25, 1.0} {
			writes := int(float64(rows) * updateFrac)
			if writes < 1 {
				writes = 1
			}
			units = append(units, SweepUnit{
				Name: fmt.Sprintf("gc/rows=%d,writes=%d", rows, writes),
				run: func(repo *metrics.Repository, cfg Config) {
					for _, intervalUS := range []float64{10_000, 50_000} {
						gcCfg := cfg
						gcCfg.Warmups = 0
						gcCfg.Repetitions = cfg.Repetitions/3 + 1
						measure(repo, gcCfg, func(col *metrics.Collector) {
							col.EnableOnly(ou.GC)
							db := scratchDB(cfg, "t", rows, 1, rows/4+1)
							ctx := ctxFor(db, cfg, nil, catalog.Compile)
							ctx.Begin()
							mustExec(ctx, &plan.UpdateNode{
								Child: &plan.SeqScanNode{Table: "t",
									Filter: plan.Cmp{Op: plan.LT, L: plan.Col(0), R: plan.IntConst(int64(writes))}},
								Table:    "t",
								SetCols:  []int{2},
								SetExprs: []plan.Expr{plan.IntConst(1)},
							})
							if err := ctx.Commit(); err != nil {
								panic(err)
							}
							gctx := ctxFor(db, cfg, col, catalog.Compile)
							exec.RunGC(gctx, intervalUS)
						})
					}
				},
			})
		}
	}
	return units
}

// walUnits sweeps record volume and payload size for the two WAL batch
// OUs. One unit per (records, payloadCols) cell.
func walUnits(cfg Config) []SweepUnit {
	payload := func(n int) storage.Tuple {
		t := storage.Tuple{}
		for i := 0; i < n; i++ {
			t = append(t, storage.NewInt(int64(i)))
		}
		return t
	}
	var units []SweepUnit
	for _, records := range []int{16, 128, 1024, 8192} {
		if records > cfg.MaxRows {
			continue
		}
		for _, payloadCols := range []int{1, 8, 32} {
			units = append(units, SweepUnit{
				Name: fmt.Sprintf("wal/records=%d,payload=%d", records, payloadCols),
				run: func(repo *metrics.Repository, cfg Config) {
					for _, intervalUS := range []float64{5_000, 20_000} {
						measure(repo, cfg, func(col *metrics.Collector) {
							col.EnableOnly(ou.LogSerialize, ou.LogFlush)
							db := scratchDB(cfg, "t", 1, 0, 1)
							for i := 0; i < records; i++ {
								db.WAL.Enqueue(nil, wal.Record{
									Type: wal.RecordUpdate, TxnID: uint64(i),
									TableID: 1, Row: int64(i), Payload: payload(payloadCols),
								})
							}
							ctx := ctxFor(db, cfg, col, catalog.Compile)
							exec.RunLogSerialize(ctx, intervalUS)
							exec.RunLogFlush(ctx, intervalUS)
						})
					}
				},
			})
		}
	}
	return units
}

// txnUnits sweeps the number of concurrently active transactions for the
// contending begin/commit OUs. One unit per active-transaction count.
func txnUnits(cfg Config) []SweepUnit {
	var units []SweepUnit
	for _, active := range []int{0, 4, 16, 64, 256} {
		units = append(units, SweepUnit{
			Name: fmt.Sprintf("txn/active=%d", active),
			run: func(repo *metrics.Repository, cfg Config) {
				for _, rate := range []float64{10, 100, 1000} {
					measure(repo, cfg, func(col *metrics.Collector) {
						col.EnableOnly(ou.TxnBegin, ou.TxnCommit)
						db := scratchDB(cfg, "t", 4, 0, 1)
						// Pin `active` transactions open to create contention.
						pinned := make([]*txn.Txn, active)
						for i := range pinned {
							pinned[i] = db.Txns.Begin(nil)
						}
						ctx := ctxFor(db, cfg, col, catalog.Compile)
						ctx.TxnRate = rate
						for i := 0; i < 4; i++ {
							ctx.Begin()
							if err := ctx.Commit(); err != nil {
								panic(err)
							}
						}
						for _, p := range pinned {
							if err := db.Abort(p, nil); err != nil {
								panic(err)
							}
						}
					})
				}
			},
		})
	}
	return units
}
