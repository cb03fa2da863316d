// Package archtest holds the module's structural rules: each one is a check
// over the source tree that keeps a mechanism the design merged into one
// from growing a second copy unnoticed. The package is test-only; go test
// ./... runs every rule against the module and, on a synthetic tree, proves
// each rule still catches the violation it exists for.
package archtest

import (
	"fmt"
	"go/format"
	"io/fs"
	"path"
	"regexp"
	"strings"
	"testing"
)

// A rule is one structural check. check returns one line per violation.
type rule struct {
	name   string
	reason string
	pr     int // the CHANGES.md entry ("PR N") that introduced the rule
	check  func(*tree) []string
}

var rules = []rule{
	{"gofmt", "every Go file is gofmt-formatted", 17, gofmtRule},
	{"cmd-links-no-check",
		"no cmd/ binary links the test harness internal/check: its drills run under go test, not in a shipped binary",
		18, cmdLinksNoCheck},
	{"two-crc-codecs",
		"hash/crc32 is imported only by the wire codec (internal/server/frame.go) and the WAL: a third CRC frame codec does not reappear unnoticed",
		19, forbid("", except("internal/server/frame.go", "internal/wal/"), `"hash/crc32"`)},
	{"repl-ships-suffixes",
		"internal/repl never calls .Durable(), .Contents(), .Suffix( or CheckpointImage(): neither a whole-image read nor a copying one comes back into the ship path; ship the device views wal.Manager.DurableSince and engine.DB.CheckpointViews return",
		20, forbid("internal/repl", nil, ".Durable()", ".Contents()", ".Suffix(", "CheckpointImage()")},
	{"one-plan-path",
		"internal/session names sql.Parse or NewPlanner only inside Session.miss: a second path from statement text to a plan does not grow beside the plan cache",
		21, onePlanPath},
	{"no-key-alloc-in-exec",
		"internal/exec never names index.KeyFromTuple(: the allocating key encoder is for callers that keep the key, and no tree call keeps one (Insert copies); builds and probes encode into ctx.keyBuf with index.AppendKeyFromTuple",
		22, forbid("internal/exec", nil, "index.KeyFromTuple(")},
	{"one-hash-join-body",
		"exactly one line under internal/exec stops the HASHJOIN_BUILD bracket (Tracker.Stop(ou.HashJoinBuild): a second hash-join body does not grow back beside exec.hashJoin",
		23, exactly("internal/exec", 1, "Tracker.Stop(ou.HashJoinBuild", nil)},
	{"one-digest-fold",
		"nothing outside benchmark/ imports hash/fnv or names fnv.New64a: every digest, fingerprint and route folds through internal/fold",
		24, forbid("", except("benchmark/"), `"hash/fnv"`, "fnv.New64a")},
	{"one-scan-loop",
		"visible( is called on exactly two lines under internal/storage, Table.Read and Table.walk: a further scan loop does not grow back beside the one walk",
		24, exactly("internal/storage", 2, "visible(", regexp.MustCompile(`^func visible\(`))},
	{"one-write-path",
		"RecordWrite( is named only in internal/txn/ and internal/engine/write.go: every row write goes through engine.Insert/Update/Delete, which index, record and log it",
		25, forbid("", except("internal/txn/", "internal/engine/write.go"), "RecordWrite(")},
	{"one-maintainer",
		"WAL.Serialize(, WAL.Flush( and GC.Run( are called only by exec/tasks.go, the checkpoint's own drain (engine/checkpoint.go), the OU sweeps (internal/runner/), internal/wal/, internal/gc/ and benchmark/: maintenance is an exec.Maintainer pass",
		26, forbid("", except("internal/exec/tasks.go", "internal/engine/checkpoint.go", "internal/runner/", "internal/wal/", "internal/gc/", "benchmark/"),
			"WAL.Serialize(", "WAL.Flush(", "GC.Run(")},
	{"one-control-step",
		"under internal/selfdrive, DrainObservations(, .PredictInterval( and ScaleVec( each appear on exactly one line, in LiveController.Tick, and .Tick( on exactly one, in Run: the loop has one step, which drains the process list, observes the interval and predicts the next, and one loop that ticks it",
		28, all(exactly("internal/selfdrive", 1, "DrainObservations(", nil),
			exactly("internal/selfdrive", 1, ".PredictInterval(", nil),
			exactly("internal/selfdrive", 1, "ScaleVec(", nil),
			exactly("internal/selfdrive", 1, ".Tick(", nil))},
	{"one-build-advance",
		"a build thread's .Remaining[ is written only in internal/planner/candidates.go, and .Progress( appears on exactly one line under internal/selfdrive, in LiveController.Tick: an in-flight index build has one contention rule, BuildHandle.Progress",
		28, all(func(t *tree) []string {
			return t.lines("", except("internal/planner/candidates.go"), remainingWrite.MatchString)
		}, exactly("internal/selfdrive", 1, ".Progress(", nil))},
	{"one-observer",
		"no non-test file under internal/exec names Observe, and the observation buffer is written (stats.record() on exactly one line under internal/session, in Session.run: executed traffic has one producer, the session",
		33, all(forbid("internal/exec", nil, "Observe"), exactly("internal/session", 1, "stats.record(", nil))},
	{"row-ids-sized-once",
		"row identities are drawn (pooledRowIDs() on exactly one line under internal/exec, in Batch.reserve, and no non-test line there makes a []storage.RowID: row identities are sized in one place, from their pool, and only when a parent reads them",
		30, all(exactly("internal/exec", 1, "pooledRowIDs(", regexp.MustCompile(`^func pooledRowIDs\(`)),
			forbid("internal/exec", nil, "make([]storage.RowID"))},
	{"one-row-pool",
		"row arrays are drawn (pooledRows() only by Batch.reserve; arrays go back (.recycle()) on exactly four lines under internal/exec — Ctx.drop, Batch.grow's outgrown arrays, a partitionJoin worker's build side and its output once merged — and a batch is dropped (.drop() on exactly seven, where it ends — feed, hashJoin's build side, execIndexJoin's outer, execSort's buffer under a limit, an UPDATE's and a DELETE's child, and Ctx.ReleaseStatement: a statement's result goes back only when its owner releases it",
		32, all(exactly("internal/exec", 1, "pooledRows(", regexp.MustCompile(`^func pooledRows\(`)),
			exactly("internal/exec", 4, ".recycle()", nil),
			exactly("internal/exec", 7, ".drop(", nil))},
	{"one-statement-arena",
		"outside internal/exec/context.go, .Statement( and .ReleaseStatement( are called only under internal/session; and the nil arena heap is named only in internal/exec/parallel.go: a statement's chunks go back only when its owner, the session, releases it, and only the partition workers, off the statement's goroutine, allocate a tuple apiece",
		40, all(forbid("", except("internal/exec/context.go", "internal/session/"), ".Statement(", ".ReleaseStatement("),
			func(t *tree) []string {
				return t.lines("internal/exec", except("internal/exec/parallel.go"), func(l string) bool {
					code, _, _ := strings.Cut(l, "//")
					return heapArena.MatchString(code)
				})
			})},
	{"one-hash-table",
		"no non-test line under internal/exec names map[string]: every build — join or aggregation, on every driver — is one keyTable",
		38, forbid("internal/exec", nil, "map[string]")},
	{"one-recycler",
		"under internal/exec, sync.Pool and weak. are named only in pool.go, no non-test file imports unsafe, and build scratch is drawn (getBuildScratch() on exactly three lines, in hashJoin, partitionJoin and execAgg: every array and scratch struct exec reuses lives in one recycled set that every goroutine shares, so what a statement allocates does not depend on the P it ran on",
		44, all(forbid("internal/exec", except("internal/exec/pool.go"), "sync.Pool", "weak."),
			forbid("internal/exec", nil, `"unsafe"`),
			exactly("internal/exec", 3, "getBuildScratch(", regexp.MustCompile(`^func getBuildScratch\(`)))},
	{"one-frame-io",
		"under internal/server and internal/repl, a connection's bytes are read (io.ReadFull() and written (.Write() only in internal/server/frame.go, by FrameConn: every frame goes through one pair of per-connection buffers",
		34, all(forbid("internal/server", except("internal/server/frame.go"), "io.ReadFull(", ".Write("),
			forbid("internal/repl", nil, "io.ReadFull(", ".Write("))},
	{"one-float-layout",
		"under internal/, math.Float64bits( and math.Float64frombits( appear only in internal/storage/value.go (NewFloat, Value.Float), internal/fold/ (H.F64) and internal/check/ (the failover digest folds a float64 statistic): a storage.Value keeps a float's bits in I, and no other layer re-derives them",
		35, forbid("internal", except("internal/storage/value.go", "internal/fold/", "internal/check/"), "math.Float64bits(", "math.Float64frombits(")},
	{"one-redo",
		"outside tests, ReplayWrite( is called only by wal.Redo's redoWrites (internal/wal/replay.go) and, on exactly one line, by engine.RecoverImages' checkpoint install, and no file outside internal/wal tests a record's type against wal.RecordCommit: a log becomes tables one way, through wal.Redo",
		39, all(func(t *tree) []string {
			return t.lines("", except("internal/wal/replay.go", "internal/engine/"), func(l string) bool {
				return strings.Contains(l, "ReplayWrite(") && !replayWriteDecl.MatchString(l)
			})
		}, exactly("internal/engine", 1, "ReplayWrite(", nil),
			func(t *tree) []string { return t.lines("", except("internal/wal/"), commitTest.MatchString) })},
	{"one-statement-source",
		"no non-test file under internal/check, internal/selfdrive or cmd/ creates a table or declares a schema (.CreateTable(, catalog.NewSchema(), and none under internal/selfdrive builds an IdxScanNode: each workload's schema, transaction stream, row oracle and TPC-C read template is written once, in internal/workload",
		45, all(forbid("internal/check", nil, schemaDecl...), forbid("cmd", nil, schemaDecl...),
			forbid("internal/selfdrive", nil, append(schemaDecl, "IdxScanNode{")...))},
	{"one-price",
		"under internal/planner, .PredictInterval( appears on exactly one non-test line, in Planner.Price: every candidate action — a mode flip, a knob shift, an index build at a thread count — is priced one way, against one baseline per planning step",
		48, exactly("internal/planner", 1, ".PredictInterval(", nil)},
	{"fuzz-targets-run",
		"the Fuzz functions in _test.go files are exactly the targets make fuzz runs: a fuzz target nobody runs does not accumulate unnoticed",
		31, fuzzTargetsRun},
	{"reachable",
		"every top-level func and method is referenced by non-test code, or listed in testonly.txt with its owner ROADMAP item or keep reason: code only tests reach is wired or deleted",
		31, unreachable},
}

func TestRules(t *testing.T) {
	tr := module(t)
	for _, r := range rules {
		t.Run(r.name, func(t *testing.T) {
			if bad := r.check(tr); len(bad) > 0 {
				t.Errorf("%s (rule since PR %d)\n\t%s", r.reason, r.pr, strings.Join(bad, "\n\t"))
			}
		})
	}
}

// except returns a skip function for the files that are, or lie under,
// one of prefixes (a prefix ending in "/" is a directory).
func except(prefixes ...string) func(string) bool {
	return func(file string) bool {
		for _, p := range prefixes {
			if file == p || (strings.HasSuffix(p, "/") && strings.HasPrefix(file, p)) {
				return true
			}
		}
		return false
	}
}

// all is the rule that fails wherever one of checks does.
func all(checks ...func(*tree) []string) func(*tree) []string {
	return func(t *tree) []string {
		var bad []string
		for _, c := range checks {
			bad = append(bad, c(t)...)
		}
		return bad
	}
}

// forbid fails every non-test line under dir, outside the files skip
// reports, that contains any of pats.
func forbid(dir string, skip func(string) bool, pats ...string) func(*tree) []string {
	return func(t *tree) []string {
		return t.lines(dir, skip, func(l string) bool {
			for _, p := range pats {
				if strings.Contains(l, p) {
					return true
				}
			}
			return false
		})
	}
}

// exactly fails unless exactly want non-test lines under dir contain pat,
// not counting lines that match ignore.
func exactly(dir string, want int, pat string, ignore *regexp.Regexp) func(*tree) []string {
	return func(t *tree) []string {
		got := t.lines(dir, nil, func(l string) bool {
			return strings.Contains(l, pat) && (ignore == nil || !ignore.MatchString(l))
		})
		if len(got) == want {
			return nil
		}
		return append([]string{fmt.Sprintf("%s on %d non-test lines under %s/, want %d:", pat, len(got), dir, want)}, got...)
	}
}

func gofmtRule(t *tree) []string {
	var bad []string
	for _, f := range t.goFiles {
		src, err := fs.ReadFile(t.fsys, f)
		if err == nil {
			var out []byte
			if out, err = format.Source(src); err == nil && string(out) != string(src) {
				err = fmt.Errorf("not gofmt-formatted")
			}
		}
		if err != nil {
			bad = append(bad, f+": "+err.Error())
		}
	}
	return bad
}

func cmdLinksNoCheck(t *tree) []string {
	pkgs, err := t.packages()
	if err != nil {
		return []string{err.Error()}
	}
	var bad []string
	for _, ip := range sortedKeys(pkgs) {
		if strings.HasPrefix(ip, t.module+"/cmd/") && t.deps(ip)[t.module+"/internal/check"] {
			bad = append(bad, ip+" links "+t.module+"/internal/check")
		}
	}
	return bad
}

// schemaDecl is what creating a table or declaring a schema names.
var schemaDecl = []string{".CreateTable(", "catalog.NewSchema("}

var (
	remainingWrite  = regexp.MustCompile(`\.Remaining\[[^\]]*\]\s*([-+*/]?=[^=]|\+\+|--)`)
	missStart       = regexp.MustCompile(`^func \(s \*Session\) miss\(`)
	planEntry       = regexp.MustCompile(`sql\.Parse|NewPlanner`)
	comment         = regexp.MustCompile(`^[ \t]*//`)
	replayWriteDecl = regexp.MustCompile(`^func \(t \*Table\) ReplayWrite\(`)
	heapArena       = regexp.MustCompile(`\bheap\b`)
	commitTest      = regexp.MustCompile(`[=!]=\s*wal\.RecordCommit\b|\bwal\.RecordCommit\s*[=!]=|\bcase\b.*\bwal\.RecordCommit\b`)
)

// onePlanPath scans the non-test files directly in internal/session, from
// the line that opens Session.miss to the next closing brace in column one
// being inside it.
func onePlanPath(t *tree) []string {
	var bad []string
	for _, f := range t.goFiles {
		if isTest(f) || path.Dir(f) != "internal/session" {
			continue
		}
		src, err := fs.ReadFile(t.fsys, f)
		if err != nil {
			bad = append(bad, f+": "+err.Error())
			continue
		}
		inMiss := false
		for i, l := range strings.Split(string(src), "\n") {
			if missStart.MatchString(l) {
				inMiss = true
			}
			if strings.HasPrefix(l, "}") {
				inMiss = false
			}
			if planEntry.MatchString(l) && !inMiss && !comment.MatchString(l) {
				bad = append(bad, fmt.Sprintf("%s:%d: %s", f, i+1, strings.TrimSpace(l)))
			}
		}
	}
	return bad
}

var (
	fuzzFunc   = regexp.MustCompile(`(?m)^func (Fuzz\w*)\(`)
	fuzzTarget = regexp.MustCompile(`(?m)-fuzz=(\w+)\b.*\s\./(\S+)\s*$`)
)

// fuzzTargetsRun compares the Fuzz functions of the tree's test files with
// the (package, target) pairs the Makefile's fuzz recipe runs.
func fuzzTargetsRun(t *tree) []string {
	have := map[string]bool{}
	for _, f := range t.goFiles {
		if !isTest(f) {
			continue
		}
		src, err := fs.ReadFile(t.fsys, f)
		if err != nil {
			return []string{err.Error()}
		}
		for _, m := range fuzzFunc.FindAllStringSubmatch(string(src), -1) {
			have[path.Dir(f)+"."+m[1]] = true
		}
	}
	mk, err := fs.ReadFile(t.fsys, "Makefile")
	if err != nil {
		return []string{err.Error()}
	}
	run := map[string]bool{}
	for _, m := range fuzzTarget.FindAllStringSubmatch(string(mk), -1) {
		run[m[2]+"."+m[1]] = true
	}
	var bad []string
	for _, target := range sortedKeys(have) {
		if !run[target] {
			bad = append(bad, target+" is not run by make fuzz")
		}
	}
	for _, target := range sortedKeys(run) {
		if !have[target] {
			bad = append(bad, "make fuzz runs "+target+", which no test file declares")
		}
	}
	return bad
}
