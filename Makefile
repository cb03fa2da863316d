GO ?= go

.PHONY: tier1 build test race stress crash fuzz vet smoke drive-smoke cli-smoke bench-gate

# tier1 is the full pre-merge gate: go vet, build, the whole test suite
# under the race detector (including the internal/check concurrency and
# crash-recovery harness matrices, and internal/archtest's structural rules:
# gofmt, the import and one-of-each rules, every fuzz target run, every
# function reachable), a short pass of every fuzz target, and smoke: a
# one-iteration run of the execution-pipeline benchmarks, one exercised path
# through every CLI's modes and one run of every example.
tier1: vet build race fuzz smoke

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
	$(GO) test -run=NONE -fuzz=FuzzTemplate -fuzztime=5s ./internal/sql
	$(GO) test -run=NONE -fuzz=FuzzWALDeserialize -fuzztime=5s ./internal/wal
	$(GO) test -run=NONE -fuzz=FuzzPartitionKey -fuzztime=5s ./internal/storage
	$(GO) test -run=NONE -fuzz=FuzzFrame -fuzztime=5s ./internal/server
	$(GO) test -run=NONE -fuzz=FuzzClusterAssign -fuzztime=5s ./internal/forecast
	$(GO) test -run=NONE -fuzz=FuzzShipFrame -fuzztime=5s ./internal/repl
	$(GO) test -run=NONE -fuzz=FuzzReplicaChunks -fuzztime=5s ./internal/repl
	$(GO) test -run=NONE -fuzz=FuzzEncodeKey -fuzztime=5s ./internal/index
	$(GO) test -run=NONE -fuzz=FuzzBTree -fuzztime=5s ./internal/index
	$(GO) test -run=NONE -fuzz=FuzzKeyTable -fuzztime=5s ./internal/exec

# smoke drives the CLIs (drive-smoke, cli-smoke), runs each examples/ program
# once (they are otherwise only built), and executes every (pipeline,
# variant) benchmark, every partition-sweep cell, each tree family's fit
# benchmark and the engine's three bulk durable-path benchmarks (checkpoint,
# bulk flush, distinct count) once — a correctness smoke, not a measurement.
smoke: drive-smoke cli-smoke
	for e in examples/*/; do $(GO) run ./$$e > /dev/null || exit 1; done
	$(GO) test -run=NONE -bench='BenchmarkPipelines|BenchmarkPartitionPipelines' -benchtime=1x ./internal/exec
	$(GO) test -run=NONE -bench=BenchmarkFit -benchtime=1x ./internal/ml
	$(GO) test -run=NONE -bench='BenchmarkCheckpoint|BenchmarkBulkFlush|BenchmarkDistinctCount' -benchtime=1x ./internal/engine

# drive-smoke is the only test of mb2-drive's flag -> Config plumbing: a
# short run with the exploder (its hot set rotating at the middle
# interval), compression and a load curve on, replayed by -verify.
drive-smoke:
	$(GO) run ./cmd/mb2-drive -intervals 4 -templates 16 -clusters 4 -load-curve diurnal -verify

# cli-smoke exercises the CLI modes through their flags: the seeded load
# generator and the replication demo of mb2-server (whose run
# TestReplRunMatchesOracle also drives), each replayed by -verify, the
# mb2-train -data-out -> mb2-drive -data hand-off, and one
# mb2-bench experiment — fig9a, whose subject is the join hash-table build
# and its JHTSleepEvery path.
cli-smoke:
	$(GO) run ./cmd/mb2-server -loadgen -sessions 50 -verify
	$(GO) run ./cmd/mb2-server -repl 2 -verify
	$(GO) run ./cmd/mb2-bench -exp fig9a
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
		$(GO) run ./cmd/mb2-train -data-out $$tmp/repo.jsonl && \
		$(GO) run ./cmd/mb2-drive -data $$tmp/repo.jsonl -intervals 2 -verify

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
