// Package planner implements the self-driving DBMS's decision side: it
// consumes MB2's behavior-model predictions to price candidate actions —
// changing the execution-mode knob, building an index with a chosen degree
// of parallelism, repartitioning the tables, and raising or lowering the
// scan DOP. Every candidate is priced one way (Price): against the
// forecast's baseline latency, predicted once at the live configuration,
// into one Decision holding the action's benefit (the latency after it)
// and, for an index build, its cost and its impact on the running workload
// (Secs 2.1, 8.7). PlanActions ranks the four families by one improvement
// rule. The package also provides the interval-timeline simulator used by
// the end-to-end experiments.
package planner

import (
	"fmt"
	"math"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/modeling"
)

// Planner evaluates candidate self-driving actions with MB2's models.
type Planner struct {
	DB     *engine.DB
	Models *modeling.ModelSet
	// Cache, when set, memoizes isolated predictions across evaluations
	// (shared by every translator the planner constructs; entries are keyed
	// by mode, so one cache serves all execution modes).
	Cache *modeling.PredictionCache
}

// New returns a planner over the trained models.
func New(db *engine.DB, ms *modeling.ModelSet) *Planner {
	return &Planner{DB: db, Models: ms}
}

// translator builds a mode translator carrying the planner's cache.
func (p *Planner) translator(mode catalog.ExecutionMode) *modeling.Translator {
	tr := modeling.NewTranslator(p.DB, mode)
	tr.Cache = p.Cache
	return tr
}

// finiteOr returns v, or fallback when v is NaN or infinite — the guard
// that keeps planner outputs defined for degenerate forecasts (no queries,
// zero counts, pathological model outputs).
func finiteOr(v, fallback float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fallback
	}
	return v
}

// modePreference is the pinned tie-break order for equal predicted
// latencies: compiled first (no per-batch overheads, best cache behavior in
// the machine the models simulate), then vectorized, then interpreted.
// Tests pin this order; changing it changes seeded replay digests.
var modePreference = [...]catalog.ExecutionMode{
	catalog.Compile, catalog.Vectorize, catalog.Interpret,
}

// preference is a mode's rank in modePreference.
func preference(m catalog.ExecutionMode) int {
	for i, p := range modePreference {
		if p == m {
			return i
		}
	}
	return len(modePreference)
}

// Decision is the planner's price for one candidate action, the same Sec
// 2.1 questions for every family: the forecast's average query latency at
// the live configuration (the baseline) and once the action has taken
// effect (after). An index build also has a cost and an impact: the
// latency while it runs and the build's time, CPU and memory. Every field
// is finite; a degenerate forecast (no queries, zero counts, non-finite
// model outputs) prices at zero.
type Decision struct {
	BaselineLatencyUS float64
	AfterLatencyUS    float64

	// DuringLatencyUS is the latency while the build's threads contend
	// with the workload (index builds only).
	DuringLatencyUS float64
	// BuildTimeUS is how long the build takes (interference-adjusted max
	// across build threads), BuildCPUUS its total CPU consumption and
	// BuildMemoryBytes the memory the new index occupies.
	BuildTimeUS      float64
	BuildCPUUS       float64
	BuildMemoryBytes float64
}

// Improvement is the relative latency reduction the action promises, the
// one rule every family is ranked by: 1 − after/baseline when the baseline
// is positive and the action lowers it, otherwise 0.
func (d Decision) Improvement() float64 {
	if d.BaselineLatencyUS > 0 && d.AfterLatencyUS < d.BaselineLatencyUS {
		return finiteOr(1-d.AfterLatencyUS/d.BaselineLatencyUS, 0)
	}
	return 0
}

// ImpactRatio is the latency during a build relative to the baseline
// (>= 1: building hurts; 0 with no baseline).
func (d Decision) ImpactRatio() float64 { return d.ratio(d.DuringLatencyUS) }

// BenefitRatio is the latency after the action relative to the baseline
// (< 1 when it helps; 0 with no baseline).
func (d Decision) BenefitRatio() float64 { return d.ratio(d.AfterLatencyUS) }

func (d Decision) ratio(us float64) float64 {
	if d.BaselineLatencyUS > 0 {
		return finiteOr(us/d.BaselineLatencyUS, 0)
	}
	return 0
}

// String renders a build's price for logs.
func (d Decision) String() string {
	return fmt.Sprintf("build=%.1fms impact=%.2fx benefit=%.2fx", d.BuildTimeUS/1e3, d.ImpactRatio(), d.BenefitRatio())
}

// A WhatIf is the world candidate actions lead to. Actions are its
// candidates: one, or for an index build one per thread count, all of the
// same family and target. After is the forecast with the post-index plans
// for an index build; the other families run the live forecast.
type WhatIf struct {
	Actions []Action
	After   modeling.IntervalForecast
}

// Price is the planner's one pricing function. It predicts the forecast's
// baseline latency at the live configuration (mode and the live knobs)
// once, then prices every what-if against it, filling each candidate's
// Decision and PredictedImprovement in place. A mode change is predicted
// through a translator for its target mode, a repartition or DOP change
// through translator what-if overrides, and an index build over w.After —
// its after latency once per what-if, its cost and during latency per
// thread count, as the build's threads join the live forecast's load.
//
// The what-if knob translator deliberately carries no prediction cache —
// plan fingerprints do not encode the overrides, so cached entries would
// alias the live configuration (see Translator.PartitionsOverride).
func (p *Planner) Price(mode catalog.ExecutionMode, f modeling.IntervalForecast, whatIfs ...WhatIf) error {
	// predict is the package's one model call (archtest rule one-price).
	predict := func(tr *modeling.Translator, fc modeling.IntervalForecast, act *modeling.ActionForecast) (modeling.IntervalPrediction, error) {
		return p.Models.PredictInterval(tr, fc, act)
	}
	live := p.translator(mode)
	base, err := predict(live, f, nil)
	if err != nil {
		return err
	}
	baseline := finiteOr(base.AvgQueryLatencyUS, 0)
	for _, w := range whatIfs {
		if len(w.Actions) == 0 {
			continue
		}
		tr, after := live, f
		switch a := w.Actions[0]; a.Kind {
		case ActionModeChange:
			tr = p.translator(a.Mode)
		case ActionRepartition, ActionSetDOP:
			tr = modeling.NewTranslator(p.DB, mode)
			tr.PartitionsOverride, tr.DOPOverride = a.Partitions, a.DOP
		case ActionIndexBuild:
			after = w.After
		}
		post, err := predict(tr, after, nil)
		if err != nil {
			return err
		}
		for i := range w.Actions {
			a := &w.Actions[i]
			a.Decision = Decision{BaselineLatencyUS: baseline, AfterLatencyUS: finiteOr(post.AvgQueryLatencyUS, 0)}
			if a.Kind == ActionIndexBuild {
				build := modeling.IndexBuildAction{Table: a.Index.Table, KeyCols: a.Index.KeyColNames, Threads: a.Threads}
				during, err := predict(live, f, &modeling.ActionForecast{IndexBuild: &build})
				if err != nil {
					return err
				}
				a.Decision.DuringLatencyUS = finiteOr(during.AvgQueryLatencyUS, 0)
				a.Decision.BuildTimeUS = finiteOr(during.ActionElapsedUS, 0)
				a.Decision.BuildCPUUS = finiteOr(during.ActionTotal.CPUTimeUS, 0)
				a.Decision.BuildMemoryBytes = finiteOr(during.ActionTotal.MemoryBytes, 0)
			}
			a.PredictedImprovement = a.Decision.Improvement()
		}
	}
	return nil
}

// ChooseIndexThreads is the index family's thread choice over one index's
// priced builds: the build meeting the impact budget (0 = unbounded) with
// the shortest build time, or — when none meets it — the gentlest (the Fig
// 1 trade-off: more threads finish sooner but hurt more). Nil when builds
// is empty.
func ChooseIndexThreads(builds []Action, maxImpactRatio float64) *Action {
	var best *Action
	for i := range builds {
		d := builds[i].Decision
		if maxImpactRatio > 0 && d.ImpactRatio() > maxImpactRatio {
			continue
		}
		if best == nil || d.BuildTimeUS < best.Decision.BuildTimeUS {
			best = &builds[i]
		}
	}
	if best == nil && len(builds) > 0 {
		// Nothing meets the budget: take the gentlest option.
		best = &builds[0]
		for i := range builds {
			if builds[i].Decision.ImpactRatio() < best.Decision.ImpactRatio() {
				best = &builds[i]
			}
		}
	}
	return best
}
