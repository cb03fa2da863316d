GO ?= go

.PHONY: tier1 build test race stress crash fuzz vet smoke drive-smoke cli-smoke bench-gate

# tier1 is the full pre-merge gate: static checks, build, the whole test
# suite under the race detector (including the internal/check concurrency
# and crash-recovery harness matrices), a short pass of every fuzz target,
# and smoke: a one-iteration run of the execution-pipeline benchmarks, one
# exercised path through every CLI's modes and one run of every example.
tier1: vet build race fuzz smoke

# vet also fails when gofmt would change any file, when any cmd/ binary
# links the test harness internal/check, when a non-test file other than
# the wire codec (internal/server/frame.go) and the WAL imports hash/crc32
# (a third CRC frame codec does not reappear unnoticed), when a non-test
# file under internal/repl/ calls .Durable() or .Contents() (a whole-image
# read does not come back into the ship path unnoticed), and when a non-test
# file under internal/session/ names sql.Parse or NewPlanner outside
# Session.miss (a second path from statement text to a plan does not grow
# beside the plan cache), and when a non-test file under internal/exec/ names
# index.KeyFromTuple( — the allocating key encoder is for the B+tree insert,
# which retains its key, and that insert is the engine's write path; a
# per-row key allocation does not come back into a build or a probe
# unnoticed — and when a non-test file outside internal/txn/ and
# internal/engine/write.go names RecordWrite( (every row write goes through
# engine.Insert/Update/Delete, which index, record and log it; a sixth
# hand-rolled write path with its own index policy does not grow back
# unnoticed), and unless exactly one
# non-test line under internal/exec/ stops the HASHJOIN_BUILD bracket
# (Tracker.Stop(ou.HashJoinBuild): a second hash-join body does not grow back
# beside exec.hashJoin unnoticed — and when a non-test file outside benchmark/
# imports hash/fnv or names fnv.New64a (every digest, fingerprint and route
# folds through internal/fold; a fifteenth hand-rolled byte packing does not
# grow back unnoticed), and unless visible( is called on exactly two non-test
# lines under internal/storage/, Table.Read and Table.walk: a fourth scan loop
# does not grow back beside the one walk unnoticed — and when a non-test file
# outside internal/exec/tasks.go, internal/engine/checkpoint.go (the
# checkpoint's own drain), internal/runner/ (the OU sweeps), internal/wal/,
# internal/gc/ and benchmark/ calls WAL.Serialize(, WAL.Flush( or GC.Run(
# (maintenance is an exec.Maintainer pass; an eighth hand-rolled
# serialize/flush/GC cadence does not grow back unnoticed) — and unless
# DrainObservations( and .Advance( each appear on exactly one non-test line
# under internal/selfdrive/, both in LiveController.ingest (the control loop
# has one driver step: one drain of the process list and one contention rule
# for an in-flight index build; a second driver with its own ingest or its
# own build-advance rule does not grow back unnoticed) — and unless
# make([]storage.RowID appears on exactly one non-test line under
# internal/exec/, in Batch.reserve (row identities are sized in one place,
# and only when a parent reads them; a source that allocates identities
# unconditionally, for a breaker that throws them away, does not grow back
# unnoticed).
vet:
	$(GO) vet ./...
	@fmt=$$(gofmt -l .); [ -z "$$fmt" ] || { echo "gofmt -l lists:"; echo "$$fmt"; exit 1; }
	@! $(GO) list -deps ./cmd/... | grep -x mb2/internal/check || { echo "a cmd/ binary links internal/check"; exit 1; }
	@! grep -rl --include='*.go' --exclude='*_test.go' '"hash/crc32"' . | grep -v -e '^\./internal/server/frame\.go$$' -e '^\./internal/wal/' || { echo "hash/crc32 imported outside internal/server/frame.go and internal/wal/"; exit 1; }
	@! grep -rn --include='*.go' --exclude='*_test.go' -e '\.Durable()' -e '\.Contents()' internal/repl || { echo "whole-image read (.Durable() / .Contents()) in internal/repl: ship wal.Manager.DurableSince's suffix"; exit 1; }
	@awk 'FNR == 1 { miss = 0 } /^func \(s \*Session\) miss\(/ { miss = 1 } /^}/ { miss = 0 } \
		/sql\.Parse|NewPlanner/ && !miss && !/^[ \t]*\/\// { print FILENAME ":" FNR ": " $$0; bad = 1 } END { exit bad }' \
		$$(ls internal/session/*.go | grep -v _test.go) || { echo "sql.Parse / NewPlanner in internal/session outside Session.miss: execute through the plan cache"; exit 1; }
	@! grep -rn --include='*.go' --exclude='*_test.go' -F 'index.KeyFromTuple(' internal/exec || { echo "index.KeyFromTuple( in internal/exec: encode into ctx.keyBuf with index.AppendKeyFromTuple"; exit 1; }
	@! grep -rn --include='*.go' --exclude='*_test.go' -F 'RecordWrite(' . | grep -v -e '^\./internal/txn/' -e '^\./internal/engine/write\.go:' || { echo "RecordWrite( outside internal/txn/ and internal/engine/write.go: write rows through engine.Insert/Update/Delete"; exit 1; }
	@n=$$(grep -rh --include='*.go' --exclude='*_test.go' -F 'Tracker.Stop(ou.HashJoinBuild' internal/exec | wc -l); [ "$$n" -eq 1 ] || { echo "Tracker.Stop(ou.HashJoinBuild on $$n non-test lines under internal/exec, want 1: the hash join has one body, exec.hashJoin"; exit 1; }
	@! grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark -e '"hash/fnv"' -e 'fnv\.New64a' . || { echo "hash/fnv outside benchmark/ and tests: fold through internal/fold"; exit 1; }
	@n=$$(grep -rh --include='*.go' --exclude='*_test.go' -F 'visible(' internal/storage | grep -vc '^func visible('); [ "$$n" -eq 2 ] || { echo "visible( called on $$n non-test lines under internal/storage, want 2 (Table.Read, Table.walk): scan through Table.walk"; exit 1; }
	@! grep -rn --include='*.go' --exclude='*_test.go' -e 'WAL\.Serialize(' -e 'WAL\.Flush(' -e 'GC\.Run(' . | grep -v -e '^\./internal/exec/tasks\.go:' -e '^\./internal/engine/checkpoint\.go:' -e '^\./internal/runner/' -e '^\./internal/wal/' -e '^\./internal/gc/' -e '^\./benchmark/' || { echo "WAL.Serialize( / WAL.Flush( / GC.Run( outside the maintainer: run an exec.Maintainer pass"; exit 1; }
	@for f in 'DrainObservations(' '.Advance('; do \
		n=$$(grep -rh --include='*.go' --exclude='*_test.go' -F "$$f" internal/selfdrive | wc -l); \
		[ "$$n" -eq 1 ] || { echo "$$f on $$n non-test lines under internal/selfdrive, want 1: drive the loop through LiveController.ingest"; exit 1; }; \
	done
	@n=$$(grep -rh --include='*.go' --exclude='*_test.go' -F 'make([]storage.RowID' internal/exec | wc -l); [ "$$n" -eq 1 ] || { echo "make([]storage.RowID on $$n non-test lines under internal/exec, want 1: size row identities through Batch.reserve"; exit 1; }

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

# smoke drives the CLIs (drive-smoke, cli-smoke), runs each examples/ program
# once (they are otherwise only built), and executes every (pipeline,
# variant) benchmark and every partition-sweep cell once — a correctness
# smoke, not a measurement.
smoke: drive-smoke cli-smoke
	for e in examples/*/; do $(GO) run ./$$e > /dev/null || exit 1; done
	$(GO) test -run=NONE -bench='BenchmarkPipelines|BenchmarkPartitionPipelines' -benchtime=1x ./internal/exec

# drive-smoke is the only test of mb2-drive's flag -> Config plumbing: a
# short run with the exploder, compression and a load curve on, replayed
# by -verify.
drive-smoke:
	$(GO) run ./cmd/mb2-drive -intervals 4 -templates 16 -clusters 4 -load-curve diurnal -verify

# cli-smoke exercises the CLI modes no test reaches: the seeded load
# generator and the replication demo of mb2-server, each replayed by
# -verify, the mb2-train -data-out -> mb2-drive -data hand-off, and one
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
