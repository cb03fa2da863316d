GO ?= go

.PHONY: tier1 build test race stress crash fuzz vet bench-smoke drive-smoke check-bench-exec bench-train bench-drive bench-exec bench-partition bench-server check-bench-server bench-compress check-bench-compress bench-repl check-bench-repl bench-gate

# tier1 is the full pre-merge gate: static checks, build, the whole test
# suite under the race detector (including the internal/check concurrency
# and crash-recovery harness matrices), short parser and WAL-deserializer
# fuzz passes, and a one-iteration run of the execution-pipeline benchmarks
# so they cannot rot between bench-exec runs.
tier1: vet build race fuzz bench-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# stress runs only the deterministic concurrency harness, race-checked.
stress:
	$(GO) test -race -v -run TestStress ./internal/check

# crash runs only the crash-at-every-point recovery harness, race-checked.
crash:
	$(GO) test -race -v -run TestCrash ./internal/check

fuzz:
	$(GO) test -run=NONE -fuzz=FuzzParse -fuzztime=5s ./internal/sql
	$(GO) test -run=NONE -fuzz=FuzzWALDeserialize -fuzztime=5s ./internal/wal
	$(GO) test -run=NONE -fuzz=FuzzPartitionKey -fuzztime=5s ./internal/storage
	$(GO) test -run=NONE -fuzz=FuzzFrame -fuzztime=5s ./internal/server
	$(GO) test -run=NONE -fuzz=FuzzClusterAssign -fuzztime=5s ./internal/forecast
	$(GO) test -run=NONE -fuzz=FuzzShipFrame -fuzztime=5s ./internal/repl

# bench-smoke executes every (pipeline, variant) benchmark and every
# partition-sweep cell once — a correctness smoke, not a measurement — and
# checks the committed BENCH_exec.json still records every execution mode,
# then drives mb2-drive through every workload arm (drive-smoke).
bench-smoke:
	$(GO) test -run=NONE -bench='BenchmarkPipelines|BenchmarkPartitionPipelines' -benchtime=1x ./internal/exec
	@$(MAKE) --no-print-directory drive-smoke
	@$(MAKE) --no-print-directory check-bench-exec
	@$(MAKE) --no-print-directory check-bench-compress
	@$(MAKE) --no-print-directory check-bench-repl

# drive-smoke is the only test of mb2-drive's flag -> Config plumbing: a
# short run with the exploder, compression, a load curve and both drills
# on, replayed by -verify.
drive-smoke:
	$(GO) run ./cmd/mb2-drive -intervals 4 -templates 16 -clusters 4 -load-curve diurnal -crash-every 2 -failover-every 4 -verify

# check-bench-exec fails unless BENCH_exec.json covers all three
# planner-selectable execution modes (plus the unfused compiled ablation),
# so the artifact cannot silently drop a mode when it is regenerated.
check-bench-exec:
	@for m in interpreted compiled_unfused compiled_fused vectorized; do \
		grep -q "\"$$m\"" BENCH_exec.json || { echo "BENCH_exec.json missing mode: $$m"; exit 1; }; \
	done
	@echo "BENCH_exec.json covers all execution modes"

# bench-train times the offline training pipeline serially and at
# increasing -j, verifies the runs digest identically, and records the
# measurements (wall clock, speedup, records/sec) as JSON.
bench-train:
	$(GO) run ./cmd/mb2-train -bench-parallel BENCH_train_parallel.json

# bench-drive runs the closed control loop with a fixed seed, verifies a
# replay reproduces it bit for bit, and records loop-interval wall clock,
# inference p50/p99, prediction-cache hit rate, and predicted-vs-observed
# MAPE as JSON.
bench-drive:
	$(GO) run ./cmd/mb2-drive -verify -bench BENCH_drive.json

# bench-exec measures the hot execution pipelines (seq-scan→filter→project,
# hash join, index join) as interpreted / compiled-unfused / compiled-fused
# / vectorized and records ns/op, B/op, and allocs/op per (pipeline,
# variant) plus the fused-path alloc reduction and the compiled and
# vectorized wall-clock speedups as JSON, then fails if any mode is
# missing from the artifact.
bench-exec:
	$(GO) run ./cmd/mb2-execbench -out BENCH_exec.json
	@$(MAKE) --no-print-directory check-bench-exec

# bench-partition sweeps the parallel scan and partition-wise join over a
# partition-count × DOP grid, checks every cell's cardinalities against the
# serial baseline, and records ns/op plus speedup-over-serial per cell —
# alongside GOMAXPROCS/NumCPU so single-CPU recordings are identifiable.
bench-partition:
	$(GO) run ./cmd/mb2-execbench -partition -rows 8000 -out BENCH_partition.json

# bench-server sweeps the seeded load generator at 100 / 1000 / 5000
# concurrent sessions over the deterministic in-process transport and
# records throughput, client-observed p50/p99 latency, and the peak
# concurrent-session gauge per point — alongside GOMAXPROCS/NumCPU — then
# fails if the artifact drops a required field.
bench-server:
	$(GO) run ./cmd/mb2-server -bench BENCH_server.json
	@$(MAKE) --no-print-directory check-bench-server

# check-bench-server fails unless BENCH_server.json records every field
# the sweep is supposed to measure, so the artifact cannot silently lose
# a metric when it is regenerated.
check-bench-server:
	@for f in gomaxprocs peak_sessions throughput_stmt_per_sec p50_us p99_us digest; do \
		grep -q "\"$$f\"" BENCH_server.json || { echo "BENCH_server.json missing field: $$f"; exit 1; }; \
	done
	@for n in 100 1000 5000; do \
		grep -q "\"sessions\": $$n" BENCH_server.json || { echo "BENCH_server.json missing sweep point: $$n sessions"; exit 1; }; \
	done
	@echo "BENCH_server.json covers all sweep points and fields"

# bench-compress sweeps forecast+plan inference cost across template
# populations (12 / 1k / 10k / 100k) with and without workload compression
# (K=64 cluster representatives) and records per-interval forecast+plan
# wall clock, per-template volume-forecast MAPE, and prediction-cache
# evictions per point — alongside GOMAXPROCS/NumCPU — then fails if the
# artifact drops a sweep point or field.
bench-compress:
	$(GO) run ./cmd/mb2-drive -bench-compress BENCH_compress.json
	@$(MAKE) --no-print-directory check-bench-compress

# check-bench-compress fails unless BENCH_compress.json records every sweep
# point at both compression settings and every measured field, so the
# artifact cannot silently lose coverage when it is regenerated.
check-bench-compress:
	@for f in gomaxprocs clusters forecast_plan_us_per_interval ingest_us_per_interval volume_mape cache_evictions speedup_max_n; do \
		grep -q "\"$$f\"" BENCH_compress.json || { echo "BENCH_compress.json missing field: $$f"; exit 1; }; \
	done
	@for n in 12 1000 10000 100000; do \
		grep -q "\"templates\": $$n" BENCH_compress.json || { echo "BENCH_compress.json missing sweep point: $$n templates"; exit 1; }; \
	done
	@for c in true false; do \
		grep -q "\"compressed\": $$c" BENCH_compress.json || { echo "BENCH_compress.json missing compression arm: $$c"; exit 1; }; \
	done
	@echo "BENCH_compress.json covers all sweep points and fields"

# bench-repl sweeps deterministic failover drills over a replica-count ×
# apply-staleness grid (killing the primary's log device at every strided
# byte offset), then pits the fixed promotion policy against model-predicted
# promotion on a scenario with unevenly lagged replicas, and records mean /
# max failover time, staleness, and the policy comparison as JSON.
bench-repl:
	$(GO) run ./cmd/mb2-drive -bench-repl BENCH_repl.json
	@$(MAKE) --no-print-directory check-bench-repl

# check-bench-repl fails unless BENCH_repl.json records every grid axis and
# the promotion-policy comparison, so the artifact cannot silently lose
# coverage when it is regenerated.
check-bench-repl:
	@for f in replicas apply_every mean_failover_us max_failover_us mean_pending_bytes predicted_beats_fixed predicted_promotions; do \
		grep -q "\"$$f\"" BENCH_repl.json || { echo "BENCH_repl.json missing field: $$f"; exit 1; }; \
	done
	@for n in 1 2 3; do \
		grep -q "\"replicas\": $$n" BENCH_repl.json || { echo "BENCH_repl.json missing grid row: $$n replicas"; exit 1; }; \
	done
	@echo "BENCH_repl.json covers the failover grid and policy comparison"

# bench-gate runs the four BENCHMARK.json workloads once at seed 1, exactly
# as the merge pipeline does, and prints the three gated end-to-end metrics
# per workload. A run that fails its own output checks stops the target.
# Compare against the same target on the parent commit: setup_s may be 25%
# worse, alloc_bytes_per_op 2%, heap_after_gc_mb 10% (bounds in
# BENCHMARK.json).
bench-gate:
	@for w in oltp_point olap_scan mixed_rw selfdrive_loop; do \
		out=$$(bash benchmark/run.sh -workload $$w -seed 1) || { echo "$$out" | tail -n 3; exit 1; }; \
		for m in setup_s alloc_bytes_per_op heap_after_gc_mb; do \
			echo "$$w $$(echo "$$out" | tail -n 1 | grep -o "\"$$m\":{[^}]*}")"; \
		done; \
	done
