package planner

import (
	"fmt"
	"sort"
	"strings"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/hw"
	"mb2/internal/metrics"
	"mb2/internal/modeling"
	"mb2/internal/ou"
	"mb2/internal/plan"
	"mb2/internal/storage"
)

// ActionKind distinguishes the self-driving action families the planner
// generates (Sec 2.1: knob changes and index builds).
type ActionKind int

// Action kinds.
const (
	ActionModeChange ActionKind = iota
	ActionIndexBuild
	ActionRepartition
	ActionSetDOP
)

func (k ActionKind) String() string {
	switch k {
	case ActionModeChange:
		return "mode-change"
	case ActionIndexBuild:
		return "index-build"
	case ActionRepartition:
		return "repartition"
	case ActionSetDOP:
		return "set-dop"
	default:
		return fmt.Sprintf("action(%d)", int(k))
	}
}

// IndexCandidate is one hot predicate column set worth indexing: a table,
// the equality-filtered columns observed in the forecasted workload's
// sequential scans, and a weight measuring how much scan volume the index
// could absorb.
type IndexCandidate struct {
	Table       string
	Name        string // index name the candidate would be published under
	KeyCols     []int
	KeyColNames []string
	// Weight is the forecasted scan volume over the candidate's table:
	// sum over matching queries of Count x table rows.
	Weight float64
}

// Action is one ranked candidate action with the planner's estimate of its
// worth.
type Action struct {
	Kind ActionKind

	// Mode is the target execution mode (ActionModeChange).
	Mode catalog.ExecutionMode
	// Index and Threads describe the build (ActionIndexBuild).
	Index   *IndexCandidate
	Threads int
	// Partitions is the target hash-partition count (ActionRepartition).
	Partitions int
	// DOP is the target scan degree of parallelism (ActionSetDOP).
	DOP int

	// PredictedImprovement is the relative reduction in forecast average
	// query latency the action promises: its Decision's Improvement (0 =
	// none; always finite).
	PredictedImprovement float64
	// Decision is the action's price, as Price filled it.
	Decision Decision
}

// String renders the action for logs.
func (a Action) String() string {
	switch a.Kind {
	case ActionModeChange:
		return fmt.Sprintf("mode-change to %v (improvement %.1f%%)", a.Mode, a.PredictedImprovement*100)
	case ActionRepartition:
		return fmt.Sprintf("repartition to %d partitions (improvement %.1f%%)",
			a.Partitions, a.PredictedImprovement*100)
	case ActionSetDOP:
		return fmt.Sprintf("set-dop to %d (improvement %.1f%%)", a.DOP, a.PredictedImprovement*100)
	case ActionIndexBuild:
		return fmt.Sprintf("index-build %s on %s%v threads=%d (improvement %.1f%%)",
			a.Index.Name, a.Index.Table, a.Index.KeyColNames, a.Threads, a.PredictedImprovement*100)
	default:
		return a.Kind.String()
	}
}

// CandidateConfig bounds candidate generation and ranking.
type CandidateConfig struct {
	// ThreadCandidates are the build parallelism degrees to evaluate.
	ThreadCandidates []int
	// MaxImpactRatio is the during-build impact budget passed to
	// ChooseIndexThreads (0 = unbounded).
	MaxImpactRatio float64
}

// partitionCandidates are the hash-partition counts PlanActions evaluates as
// repartition actions, and dopCandidates the scan DOPs it evaluates as
// set-dop actions; the live value of each is skipped.
var (
	partitionCandidates = []int{1, 2, 4, 8}
	dopCandidates       = []int{1, 2, 4}
)

// eqConsts walks a conjunctive predicate collecting col = const terms into
// out and returning the residual conjuncts (everything that is not a plain
// equality against a literal).
func eqConsts(e plan.Expr, out map[int]storage.Value) []plan.Expr {
	switch x := e.(type) {
	case plan.And:
		res := eqConsts(x.L, out)
		return append(res, eqConsts(x.R, out)...)
	case plan.Cmp:
		if x.Op == plan.EQ {
			if col, ok := x.L.(plan.ColRef); ok {
				if c, ok := x.R.(plan.Const); ok {
					out[col.Idx] = c.V
					return nil
				}
			}
			if col, ok := x.R.(plan.ColRef); ok {
				if c, ok := x.L.(plan.Const); ok {
					out[col.Idx] = c.V
					return nil
				}
			}
		}
	}
	return []plan.Expr{e}
}

// conjoin rebuilds a conjunction from residual terms (nil when empty).
func conjoin(terms []plan.Expr) plan.Expr {
	var out plan.Expr
	for _, t := range terms {
		if out == nil {
			out = t
		} else {
			out = plan.And{L: out, R: t}
		}
	}
	return out
}

// GenerateIndexCandidates mines the forecasted workload for hot predicate
// column sets: every sequential scan with conjunctive equality filters
// proposes an index over those columns, weighted by the forecast volume
// times the scanned table's size. Column sets already covered by an
// existing index are skipped. Candidates come back heaviest first,
// deterministically ordered.
func GenerateIndexCandidates(db *engine.DB, f modeling.IntervalForecast) []IndexCandidate {
	byKey := make(map[string]*IndexCandidate)
	for _, q := range f.Queries {
		plan.Walk(q.Plan, func(n plan.Node) {
			scan, ok := n.(*plan.SeqScanNode)
			if !ok || scan.Filter == nil {
				return
			}
			t := db.Table(scan.Table)
			if t == nil {
				return
			}
			consts := make(map[int]storage.Value)
			eqConsts(scan.Filter, consts)
			if len(consts) == 0 {
				return
			}
			cols := make([]int, 0, len(consts))
			for c := range consts {
				cols = append(cols, c)
			}
			sort.Ints(cols)
			if indexCovers(db, t.Meta.ID, cols) {
				return
			}
			schema := t.Meta.Schema
			names := make([]string, len(cols))
			for i, c := range cols {
				names[i] = schema.Columns[c].Name
			}
			key := fmt.Sprintf("%s/%v", scan.Table, cols)
			cand, ok := byKey[key]
			if !ok {
				cand = &IndexCandidate{
					Table:       scan.Table,
					Name:        "auto_" + scan.Table + "_" + strings.Join(names, "_"),
					KeyCols:     cols,
					KeyColNames: names,
				}
				byKey[key] = cand
			}
			cand.Weight += q.Count * db.RowCount(scan.Table)
		})
	}
	out := make([]IndexCandidate, 0, len(byKey))
	for _, c := range byKey {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// indexCovers reports whether the table already has an index over exactly
// this column set (order-insensitive).
func indexCovers(db *engine.DB, tableID int, cols []int) bool {
	for _, im := range db.Catalog.TableIndexes(tableID) {
		if len(im.KeyCols) != len(cols) {
			continue
		}
		have := append([]int(nil), im.KeyCols...)
		sort.Ints(have)
		match := true
		for i := range cols {
			if have[i] != cols[i] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// Rewrite returns the what-if version of a plan under the hypothetical
// index: sequential scans over the candidate's table whose equality
// predicates cover the key columns become index point lookups (leftover
// conjuncts stay as the scan's filter). Nodes the index cannot serve are
// returned unchanged; rewritten parents share unrewritten subtrees with the
// original plan, which stays valid.
func (c IndexCandidate) Rewrite(n plan.Node) plan.Node {
	switch x := n.(type) {
	case *plan.SeqScanNode:
		if x.Table != c.Table || x.Filter == nil {
			return n
		}
		consts := make(map[int]storage.Value)
		residual := eqConsts(x.Filter, consts)
		eq := make([]storage.Value, len(c.KeyCols))
		for i, col := range c.KeyCols {
			v, ok := consts[col]
			if !ok {
				return n // predicate does not cover the key
			}
			eq[i] = v
		}
		// Equality terms on non-key columns survive as residual filters.
		keySet := make(map[int]bool, len(c.KeyCols))
		for _, col := range c.KeyCols {
			keySet[col] = true
		}
		for col, v := range consts {
			if !keySet[col] {
				residual = append(residual, plan.Cmp{Op: plan.EQ, L: plan.Col(col), R: plan.Const{V: v}})
			}
		}
		return &plan.IdxScanNode{
			Table: x.Table, Index: c.Name, Eq: eq,
			Filter: conjoin(residual), Project: x.Project, Rows: x.Rows,
		}
	case *plan.IdxScanNode, *plan.InsertNode:
		return n
	default:
		return plan.MapChildren(n, c.Rewrite)
	}
}

// RewriteForecast returns the forecast with every query plan rewritten
// under the hypothetical index and fingerprints recomputed, plus whether
// any plan actually changed (an index no query would use is not worth
// evaluating).
func (c IndexCandidate) RewriteForecast(f modeling.IntervalForecast) (modeling.IntervalForecast, bool) {
	out := f
	out.Queries = make([]modeling.ForecastQuery, len(f.Queries))
	changed := false
	for i, q := range f.Queries {
		nq := q
		if rewritten := c.Rewrite(q.Plan); rewritten != q.Plan {
			changed = true
			nq.Plan = rewritten
			if q.Fingerprint != 0 {
				nq.Fingerprint = plan.Fingerprint(rewritten)
			}
		}
		out.Queries[i] = nq
	}
	return out, changed
}

// PlanActions generates and prices candidate actions for the forecasted
// interval across all four families — each execution mode other than the
// live one, an index build per hot predicate column set at each configured
// thread count, a repartition per candidate partition count, and a DOP
// change per candidate scan DOP — through one Price call against one
// baseline. Each index keeps the build ChooseIndexThreads picks. Actions
// predicting no improvement are dropped; the rest come back ranked.
func (p *Planner) PlanActions(mode catalog.ExecutionMode, f modeling.IntervalForecast, cfg CandidateConfig) ([]Action, error) {
	var whatIfs []WhatIf
	one := func(a Action) { whatIfs = append(whatIfs, WhatIf{Actions: []Action{a}}) }
	for _, m := range modePreference {
		if m != mode {
			one(Action{Kind: ActionModeChange, Mode: m})
		}
	}
	threads := cfg.ThreadCandidates
	if len(threads) == 0 {
		threads = []int{1, 2, 4}
	}
	cands := GenerateIndexCandidates(p.DB, f)
	for i := range cands {
		after, changed := cands[i].RewriteForecast(f)
		if !changed {
			continue
		}
		w := WhatIf{After: after}
		for _, t := range threads {
			w.Actions = append(w.Actions, Action{Kind: ActionIndexBuild, Index: &cands[i], Threads: t})
		}
		whatIfs = append(whatIfs, w)
	}
	knobs := p.DB.Knobs()
	for _, parts := range partitionCandidates {
		if parts != normalizeKnob(knobs.PartitionCount) {
			one(Action{Kind: ActionRepartition, Partitions: parts})
		}
	}
	for _, dop := range dopCandidates {
		if dop != normalizeKnob(knobs.ScanDOP) {
			one(Action{Kind: ActionSetDOP, DOP: dop})
		}
	}
	if err := p.Price(mode, f, whatIfs...); err != nil {
		return nil, err
	}

	var out []Action
	for _, w := range whatIfs {
		a := &w.Actions[0]
		if a.Kind == ActionIndexBuild {
			a = ChooseIndexThreads(w.Actions, cfg.MaxImpactRatio)
		}
		if a.PredictedImprovement > 0 {
			out = append(out, *a)
		}
	}
	rank(out)
	return out, nil
}

// rank sorts actions best first: by predicted improvement, then family,
// index name, target mode (modePreference), partition count and DOP, so
// the order is deterministic.
func rank(actions []Action) {
	sort.SliceStable(actions, func(i, j int) bool {
		a, b := actions[i], actions[j]
		if a.PredictedImprovement != b.PredictedImprovement {
			return a.PredictedImprovement > b.PredictedImprovement
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Index != nil && b.Index != nil && a.Index.Name != b.Index.Name {
			return a.Index.Name < b.Index.Name
		}
		if a.Mode != b.Mode {
			return preference(a.Mode) < preference(b.Mode)
		}
		if a.Partitions != b.Partitions {
			return a.Partitions < b.Partitions
		}
		return a.DOP < b.DOP
	})
}

// normalizeKnob floors a partition-count or DOP knob at its serial value.
func normalizeKnob(v int) int {
	if v < 1 {
		return 1
	}
	return v
}

// BuildHandle tracks an in-progress index build applied against the
// running system: the index is materialized under a private name and its
// per-thread isolated work contends with the workload interval by interval
// until progress covers it, at which point Publish renames it live. Simulate
// and the online loop both drive it.
type BuildHandle struct {
	Candidate IndexCandidate
	Threads   int
	// PerThread is the isolated per-thread build work (what the INDEX_BUILD
	// OU-model predicts); Remaining is each thread's unfinished elapsed
	// time.
	PerThread []hw.Metrics
	Remaining []float64
}

// Apply executes the action against the running database. A mode change,
// repartition, or DOP change takes effect immediately (knob write; the
// repartition rebuilds the partition directories in place). An index build
// starts the
// physical materialization under a private name and returns a handle the
// caller advances each interval; the action is not visible to query
// planning until the handle's Publish. col, when non-nil, receives the
// build's INDEX_BUILD OU record.
func (p *Planner) Apply(a Action, col *metrics.Collector) (*BuildHandle, error) {
	switch a.Kind {
	case ActionModeChange:
		k := p.DB.Knobs()
		k.ExecutionMode = a.Mode
		p.DB.SetKnobs(k)
		return nil, nil
	case ActionRepartition:
		if a.Partitions < 1 {
			return nil, fmt.Errorf("planner: repartition action with %d partitions", a.Partitions)
		}
		p.DB.Repartition(nil, a.Partitions)
		return nil, nil
	case ActionSetDOP:
		if a.DOP < 1 {
			return nil, fmt.Errorf("planner: set-dop action with dop %d", a.DOP)
		}
		k := p.DB.Knobs()
		k.ScanDOP = a.DOP
		p.DB.SetKnobs(k)
		return nil, nil
	case ActionIndexBuild:
		if a.Index == nil {
			return nil, fmt.Errorf("planner: index-build action without a candidate")
		}
		threads := a.Threads
		if threads < 1 {
			threads = 1
		}
		if col != nil {
			col.EnableOnly(ou.IndexBuild)
		}
		_, build, err := p.DB.CreateIndex(col, p.DB.Machine.CPU,
			a.Index.Name+catalog.BuildingSuffix, a.Index.Table, a.Index.KeyColNames, false, threads)
		if err != nil {
			return nil, fmt.Errorf("planner: starting build: %w", err)
		}
		h := &BuildHandle{Candidate: *a.Index, Threads: threads, PerThread: build.PerThread}
		h.Remaining = make([]float64, len(h.PerThread))
		for i, m := range h.PerThread {
			h.Remaining[i] = m.ElapsedUS
		}
		return h, nil
	default:
		return nil, fmt.Errorf("planner: unknown action kind %d", a.Kind)
	}
}

// Demand returns the work the build's unfinished threads ask for over the
// next intervalUS of wall clock, in thread order: each asks for up to one
// interval of its isolated rate.
func (h *BuildHandle) Demand(intervalUS float64) []hw.Metrics {
	var work []hw.Metrics
	for j, m := range h.PerThread {
		if h.demands(j) {
			work = append(work, m.Scale(min(intervalUS, h.Remaining[j])/m.ElapsedUS))
		}
	}
	return work
}

// Progress is the build's one contention rule: each thread Demand returned
// covers intervalUS of wall clock divided by its elapsed-time contention
// ratio (ratios[e] is the e-th demanding thread's label ratios, as
// hw.Machine.ContentionRatios returns them) in isolated-equivalent
// microseconds. A thread with no positive ratio makes no progress.
func (h *BuildHandle) Progress(ratios [][]float64, intervalUS float64) {
	e := 0
	for j := range h.PerThread {
		if !h.demands(j) {
			continue
		}
		if r := ratios[e][hw.LabelElapsedUS]; r > 0 {
			h.Remaining[j] -= intervalUS / r
		}
		e++
	}
}

// demands reports whether thread j still has work to do.
func (h *BuildHandle) demands(j int) bool {
	return h.Remaining[j] > 0 && h.PerThread[j].ElapsedUS > 0
}

// Done reports whether every build thread has covered its work.
func (h *BuildHandle) Done() bool {
	for _, rem := range h.Remaining {
		if rem > 0 {
			return false
		}
	}
	return true
}

// Publish renames the privately-built index to its real name, making it
// visible to query planning (and bumping the config version, which
// invalidates prediction caches).
func (h *BuildHandle) Publish(db *engine.DB) error {
	return db.RenameIndex(h.Candidate.Name+catalog.BuildingSuffix, h.Candidate.Name)
}
