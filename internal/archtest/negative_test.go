package archtest

import (
	"strings"
	"testing"
	"testing/fstest"
)

// A violation is a synthetic tree that must fail one rule with a report
// containing want.
type violation struct {
	rule, name, want string
	files            map[string]string
}

// Each "want N" rule gets a tree with one line too many, as a second copy of
// the mechanism would add.
var violations = []violation{
	{"gofmt", "unformatted file", "internal/x/x.go: not gofmt-formatted", map[string]string{
		"internal/x/x.go": "package x\nfunc  f( ) {}\n"}},
	{"cmd-links-no-check", "cmd/ imports internal/check through a package", "mb2/cmd/tool links mb2/internal/check", map[string]string{
		"cmd/tool/main.go":        "package main\n\nimport \"mb2/internal/y\"\n\nfunc main() { y.Y() }\n",
		"internal/y/y.go":         "package y\n\nimport \"mb2/internal/check\"\n\nfunc Y() { check.Run() }\n",
		"internal/check/check.go": "package check\n\nfunc Run() {}\n"}},
	{"two-crc-codecs", "a third CRC codec", "internal/repl/frame.go:3:", map[string]string{
		"internal/repl/frame.go": "package repl\n\nimport \"hash/crc32\"\n"}},
	{"repl-ships-suffixes", "a whole-image read in repl", "internal/repl/ship.go:3:", map[string]string{
		"internal/repl/ship.go": "package repl\n\nfunc f() { _ = dev.Durable() }\n"}},
	{"repl-ships-suffixes", "a copied checkpoint image in repl", "internal/repl/ship.go:3:", map[string]string{
		"internal/repl/ship.go": "package repl\n\nfunc f() { img := g.db.CheckpointImage() }\n"}},
	{"repl-ships-suffixes", "a copying suffix read in repl", "internal/repl/ship.go:3:", map[string]string{
		"internal/repl/ship.go": "package repl\n\nfunc f() { b := dev.Suffix(off) }\n"}},
	{"one-plan-path", "a parse outside Session.miss", "internal/session/s.go:8:", map[string]string{
		"internal/session/s.go": "package session\n\nfunc (s *Session) miss() {\n\tsql.Parse(q)\n}\n\nfunc (s *Session) run() {\n\tsql.Parse(q)\n}\n"}},
	{"no-key-alloc-in-exec", "an allocating key encoder in a probe", "internal/exec/probe.go:3:", map[string]string{
		"internal/exec/probe.go": "package exec\n\nfunc f() { k := index.KeyFromTuple(t, cols) }\n"}},
	{"one-hash-join-body", "a second hash-join body", "on 2 non-test lines", map[string]string{
		"internal/exec/join.go":  "package exec\n\nfunc a() { ctx.Tracker.Stop(ou.HashJoinBuild, f, s) }\n",
		"internal/exec/join2.go": "package exec\n\nfunc b() { ctx.Tracker.Stop(ou.HashJoinBuild, f, s) }\n"}},
	{"one-digest-fold", "a hand-rolled FNV packing", "internal/plan/fp.go:3:", map[string]string{
		"internal/plan/fp.go": "package plan\n\nfunc f() { h := fnv.New64a() }\n"}},
	{"one-scan-loop", "a third visibility check", "on 3 non-test lines", map[string]string{
		"internal/storage/t.go": "package storage\n\nfunc visible(v *version) bool { return true }\n\nfunc (t *Table) Read() { visible(v) }\n\nfunc (t *Table) walk() { visible(v) }\n\nfunc (t *Table) scan2() { visible(v) }\n"}},
	{"one-write-path", "a hand-rolled write path", "internal/check/harness.go:3:", map[string]string{
		"internal/check/harness.go": "package check\n\nfunc f() { tx.RecordWrite(w) }\n"}},
	{"one-maintainer", "a hand-rolled flush cadence", "internal/session/s.go:3:", map[string]string{
		"internal/session/s.go": "package session\n\nfunc f() { db.WAL.Flush(th) }\n"}},
	{"one-control-step", "a second DrainObservations( line", "DrainObservations( on 2 non-test lines", map[string]string{
		"internal/selfdrive/control.go": "package selfdrive\n\nfunc (c *LiveController) Tick() { c.reg.DrainObservations() }\n",
		"internal/selfdrive/loop.go":    "package selfdrive\n\nfunc run() { reg.DrainObservations(); ctl.Tick() }\n"}},
	{"one-control-step", "a loop that predicts outside Tick", ".PredictInterval( on 2 non-test lines", map[string]string{
		"internal/selfdrive/control.go": "package selfdrive\n\nfunc (c *LiveController) Tick() { c.p.Models.PredictInterval(tr, f, af) }\n",
		"internal/selfdrive/loop.go":    "package selfdrive\n\nfunc run() { ctl.Tick(); ms.PredictInterval(tr, f, nil) }\n"}},
	{"one-build-advance", "a second build-advance rule", "on 2 non-test lines", map[string]string{
		"internal/selfdrive/control.go": "package selfdrive\n\nfunc f() { c.build.Progress(ratios, us) }\n",
		"internal/selfdrive/loop.go":    "package selfdrive\n\nfunc g() { b.Progress(r, us) }\n"}},
	{"one-build-advance", "a second progress formula", "internal/planner/sim.go:3:", map[string]string{
		"internal/planner/candidates.go": "package planner\n\nfunc (h *BuildHandle) Progress() { h.Remaining[j] -= us / r }\n",
		"internal/planner/sim.go":        "package planner\n\nfunc f() { build.Remaining[j] -= us / r }\n",
		"internal/selfdrive/control.go":  "package selfdrive\n\nfunc f() { c.build.Progress(ratios, us) }\n"}},
	{"one-price", "a second evaluator that predicts", ".PredictInterval( on 2 non-test lines", map[string]string{
		"internal/planner/planner.go": "package planner\n\nfunc (p *Planner) Price() { p.Models.PredictInterval(tr, fc, act) }\n",
		"internal/planner/knobs.go":   "package planner\n\nfunc (p *Planner) EvaluateKnobShift() { p.Models.PredictInterval(wtr, f, nil) }\n"}},
	{"one-observer", "an observer hook back in exec", "internal/exec/observed.go:3:", map[string]string{
		"internal/exec/observed.go":   "package exec\n\ntype QueryObserver interface{ ObserveQuery(string) }\n",
		"internal/session/session.go": "package session\n\nfunc (s *Session) run() { s.stats.record(t, n, iso) }\n"}},
	{"one-observer", "a second write of the observation buffer", "on 2 non-test lines", map[string]string{
		"internal/session/session.go":   "package session\n\nfunc (s *Session) run() { s.stats.record(t, n, iso) }\n",
		"internal/session/plancache.go": "package session\n\nfunc (s *Session) execEntry() { s.stats.record(t, n, iso) }\n"}},
	{"row-ids-sized-once", "a second make([]storage.RowID", "internal/exec/scan.go:3:", map[string]string{
		"internal/exec/batch.go": "package exec\n\nfunc (b *Batch) reserve(n int) { b.RowIDs = pooledRowIDs(n) }\n",
		"internal/exec/scan.go":  "package exec\n\nfunc f(n int) { ids := make([]storage.RowID, n) }\n"}},
	{"row-ids-sized-once", "a second draw of row identities", "on 2 non-test lines", map[string]string{
		"internal/exec/batch.go": "package exec\n\nfunc (b *Batch) reserve(n int) { b.RowIDs = pooledRowIDs(n) }\n",
		"internal/exec/scan.go":  "package exec\n\nfunc f(n int) { ids := pooledRowIDs(n) }\n"}},
	{"one-row-pool", "Execute's result recycled", ".drop( on 8 non-test lines", map[string]string{
		"internal/exec/relational.go": "package exec\n\nfunc feed() { ctx.drop(b) }\n\nfunc execIndexJoin() { defer ctx.drop(outer) }\n\nfunc execSort() { ctx.drop(sb) }\n\nfunc Execute() { ctx.drop(b) }\n",
		"internal/exec/pipeline.go":   "package exec\n\nfunc hashJoin() { defer ctx.drop(left) }\n",
		"internal/exec/dml.go":        "package exec\n\nfunc execUpdate() { defer ctx.drop(child) }\n\nfunc execDelete() { defer ctx.drop(child) }\n",
		"internal/exec/context.go":    "package exec\n\nfunc (c *Ctx) ReleaseStatement() { c.drop(c.result) }\n"}},
	{"one-statement-arena", "a statement released outside its session", "internal/selfdrive/loop.go:3:", map[string]string{
		"internal/selfdrive/loop.go": "package selfdrive\n\nfunc f(w *session.Session) { w.ExecCtx().ReleaseStatement() }\n"}},
	{"one-statement-arena", "heap tuples back in the Materialize driver", "internal/exec/pipeline.go:3:", map[string]string{
		"internal/exec/parallel.go": "package exec\n\nvar heap *valueArena\n",
		"internal/exec/pipeline.go": "package exec\n\nfunc applyStage() { t, keep := st.step(r, heap) } // not the arena\n"}},
	{"one-hash-table", "a group map back in the aggregation", "internal/exec/relational.go:3:", map[string]string{
		"internal/exec/relational.go": "package exec\n\nfunc execAgg() { groups := make(map[string]*aggState) }\n"}},
	{"one-recycler", "a second row-array pool", "internal/exec/scratch.go:3:", map[string]string{
		"internal/exec/pool.go":    "package exec\n\nvar anchor sync.Pool\n",
		"internal/exec/scratch.go": "package exec\n\nvar rowPool = sync.Pool{New: newRows}\n"}},
	{"one-recycler", "a chunk pooled outside pool.go", "internal/exec/vectorized.go:3:", map[string]string{
		"internal/exec/vectorized.go": "package exec\n\nfunc f(c []storage.Value) { spare = weak.Make(&c[0]) }\n"}},
	{"one-recycler", "an array rebuilt from a pointer again", "internal/exec/pool.go:3:", map[string]string{
		"internal/exec/pool.go": "package exec\n\nimport \"unsafe\"\n"}},
	{"one-recycler", "a build scratch drawn a fourth time", "on 4 non-test lines", map[string]string{
		"internal/exec/pool.go":       "package exec\n\nfunc getBuildScratch() *buildScratch { return new(buildScratch) }\n",
		"internal/exec/pipeline.go":   "package exec\n\nfunc hashJoin() { s := getBuildScratch() }\n",
		"internal/exec/parallel.go":   "package exec\n\nfunc partitionJoin() { s := getBuildScratch() }\n",
		"internal/exec/relational.go": "package exec\n\nfunc execAgg() { s := getBuildScratch() }\n\nfunc execSort() { s := getBuildScratch() }\n"}},
	{"one-frame-io", "a reply written past the frame buffers", "internal/server/server.go:3:", map[string]string{
		"internal/server/frame.go":  "package server\n\nfunc (c *FrameConn) End() { c.rw.Write(frame) }\n",
		"internal/server/server.go": "package server\n\nfunc reply(conn Conn, f Frame) { conn.Write(AppendFrame(nil, f)) }\n"}},
	{"one-frame-io", "a ship frame read past the frame buffers", "internal/repl/frame.go:3:", map[string]string{
		"internal/repl/frame.go": "package repl\n\nfunc readShip(r io.Reader, b []byte) { io.ReadFull(r, b) }\n"}},
	{"one-float-layout", "a WAL encoder that derives a value's bits again", "internal/wal/wal.go:3:", map[string]string{
		"internal/storage/value.go": "package storage\n\nfunc (v Value) Float() float64 { return math.Float64frombits(uint64(v.I)) }\n",
		"internal/wal/wal.go":       "package wal\n\nfunc put(b []byte, v storage.Value) { binary.LittleEndian.PutUint64(b, math.Float64bits(v.Float())) }\n"}},
	{"one-redo", "a replay loop outside wal.Redo", "internal/check/invariants.go:3:", map[string]string{
		"internal/storage/table.go":    "package storage\n\nfunc (t *Table) ReplayWrite(row RowID, data Tuple, ts uint64) {}\n",
		"internal/check/invariants.go": "package check\n\nfunc f() { fresh.ReplayWrite(storage.RowID(r.Row), r.Payload, ts) }\n"}},
	{"one-redo", "a second replay loop in engine", "on 2 non-test lines", map[string]string{
		"internal/engine/engine.go": "package engine\n\nfunc install() { t.ReplayWrite(row, data, ck.SnapshotTS) }\n\nfunc redo() { t.ReplayWrite(row, data, ts) }\n"}},
	{"one-redo", "a commit order computed outside wal", "internal/runner/r.go:3:", map[string]string{
		"internal/runner/r.go": "package runner\n\nfunc f() { if r.Type == wal.RecordCommit { order = append(order, r.TxnID) } }\n"}},
	{"one-redo", "a switch on the commit record outside wal", "internal/repl/r.go:5:", map[string]string{
		"internal/repl/r.go": "package repl\n\nfunc f() {\n\tswitch r.Type {\n\tcase wal.RecordCommit:\n\t}\n}\n"}},
	{"one-statement-source", "a table the crash sweep creates itself", "internal/check/crash.go:3:", map[string]string{
		"internal/check/crash.go": "package check\n\nfunc open(db *engine.DB) { db.CreateTable(\"kv\", sch) }\n"}},
	{"one-statement-source", "a schema a binary declares itself", "cmd/tool/repl.go:3:", map[string]string{
		"cmd/tool/repl.go": "package main\n\nvar sch = catalog.NewSchema(catalog.Column{Name: \"k\"})\n"}},
	{"one-statement-source", "a TPC-C read template the loop builds itself", "internal/selfdrive/workload.go:3:", map[string]string{
		"internal/selfdrive/workload.go": "package selfdrive\n\nfunc ordersPoint() plan.Node { return &plan.IdxScanNode{Table: \"orders\"} }\n"}},
	{"fuzz-targets-run", "a fuzz target make fuzz does not run", "internal/x.FuzzB is not run by make fuzz", map[string]string{
		"Makefile":                "fuzz:\n\t$(GO) test -run=NONE -fuzz=FuzzA -fuzztime=5s ./internal/x\n",
		"internal/x/fuzz_test.go": "package x\n\nfunc FuzzA(f *testing.F) {}\n\nfunc FuzzB(f *testing.F) {}\n"}},
	{"fuzz-targets-run", "make fuzz runs a target nobody declares", "make fuzz runs internal/x.FuzzGone", map[string]string{
		"Makefile":                "fuzz:\n\t$(GO) test -run=NONE -fuzz=FuzzA -fuzztime=5s ./internal/x\n\t$(GO) test -run=NONE -fuzz=FuzzGone -fuzztime=5s ./internal/x\n",
		"internal/x/fuzz_test.go": "package x\n\nfunc FuzzA(f *testing.F) {}\n"}},
	{"reachable", "a function only a test calls", "internal/x.onlyTests has no non-test reference", map[string]string{
		"internal/x/x.go":      "package x\n\nfunc Used() {}\n\nfunc onlyTests() { Used() }\n",
		"internal/x/x_test.go": "package x\n\nfunc TestX() { onlyTests() }\n",
		"cmd/tool/main.go":     "package main\n\nimport \"mb2/internal/x\"\n\nfunc main() { x.Used() }\n"}},
	{"reachable", "a function only it calls itself", "cmd/tool.loop has no non-test reference", map[string]string{
		"cmd/tool/main.go": "package main\n\nfunc main() {}\n\nfunc loop(n int) { loop(n - 1) }\n"}},
	{"reachable", "a listed symbol non-test code references", "cmd/tool.f is referenced", map[string]string{
		"cmd/tool/main.go": "package main\n\nfunc main() { f() }\n\nfunc f() {}\n",
		testOnlyFile:       "cmd/tool.f keep: a reason\n"}},
	{"reachable", "a listed symbol that no longer exists", "cmd/tool.gone no longer exists", map[string]string{
		"cmd/tool/main.go": "package main\n\nfunc main() {}\n",
		testOnlyFile:       "cmd/tool.gone item 1: its owner\n"}},
	{"reachable", "a listed symbol with no owner", "cmd/tool.f names no owner", map[string]string{
		"cmd/tool/main.go": "package main\n\nfunc main() {}\n\nfunc f() {}\n",
		testOnlyFile:       "cmd/tool.f because\n"}},
}

// mapTree is a synthetic module named mb2 holding files.
func mapTree(t *testing.T, files map[string]string) *tree {
	t.Helper()
	fsys := fstest.MapFS{"go.mod": {Data: []byte("module mb2\n\ngo 1.22\n")}}
	for name, src := range files {
		fsys[name] = &fstest.MapFile{Data: []byte(src)}
	}
	tr, err := newTree(fsys)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestEveryRuleCatchesItsViolation(t *testing.T) {
	byRule := map[string]rule{}
	covered := map[string]bool{}
	for _, r := range rules {
		byRule[r.name] = r
	}
	for _, v := range violations {
		r, ok := byRule[v.rule]
		if !ok {
			t.Fatalf("violation %q names no rule %q", v.name, v.rule)
		}
		covered[v.rule] = true
		t.Run(v.rule+"/"+v.name, func(t *testing.T) {
			bad := strings.Join(r.check(mapTree(t, v.files)), "\n\t")
			if !strings.Contains(bad, v.want) {
				t.Errorf("rule %s on a tree with %s: want a report of %q, got\n\t%s", v.rule, v.name, v.want, bad)
			}
		})
	}
	for _, r := range rules {
		if !covered[r.name] {
			t.Errorf("rule %s has no violation case", r.name)
		}
	}
}

// The reachability rule's exemptions: main and init, a method an interface
// of the module asks for, a listed symbol, and a function that is only
// referenced from a package-level declaration.
func TestReachableExemptions(t *testing.T) {
	tr := mapTree(t, map[string]string{
		"cmd/tool/main.go": "package main\n\nimport \"mb2/internal/x\"\n\nfunc init() {}\n\nfunc main() { x.Use(x.T{}) }\n",
		"internal/x/x.go": "package x\n\ntype Namer interface{ Name() string }\n\ntype T struct{}\n\n" +
			"func (T) Name() string { return \"t\" }\n\nfunc Use(n Namer) { _ = n.Name() }\n\n" +
			"var hook = onInit\n\nfunc onInit() {}\n\nfunc Listed() {}\n",
		testOnlyFile: "# comment\n\ninternal/x.Listed keep: a written reason\n",
	})
	if bad := unreachable(tr); len(bad) > 0 {
		t.Errorf("exempt symbols failed the rule:\n\t%s", strings.Join(bad, "\n\t"))
	}
}
