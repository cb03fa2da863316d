package selfdrive

import (
	"fmt"

	"mb2/internal/forecast"
	"mb2/internal/modeling"
	"mb2/internal/plan"
	"mb2/internal/planner"
)

// minImprovement is the predicted relative latency reduction an action must
// promise to be applied; maxImpactRatio is the default during-build impact
// budget the planner holds index builds to.
const (
	minImprovement = 0.02
	maxImpactRatio = 2.0
)

// controller is the act half of the loop, the one control step Run and
// LiveController both drive: it owns the in-flight index build, the
// published indexes and the action log. A driver advances the build its own
// way (contention ratios in Run, unit speed live), calls publishIfDone, and
// on planning steps hands act the forecast.
type controller struct {
	p    *planner.Planner
	cand planner.CandidateConfig

	build     *planner.BuildHandle
	published []planner.IndexCandidate
	actions   []AppliedAction
}

// publishIfDone makes a finished build live and records the index-publish
// at this step; an unfinished build stays in flight.
func (c *controller) publishIfDone(step int) error {
	if c.build == nil || !c.build.Done() {
		return nil
	}
	if err := c.build.Publish(c.p.DB); err != nil {
		return fmt.Errorf("selfdrive: publishing %s: %w", c.build.Candidate.Name, err)
	}
	c.published = append(c.published, c.build.Candidate)
	c.actions = append(c.actions, AppliedAction{
		Interval: step, Kind: "index-publish", Detail: c.build.Candidate.Name,
	})
	c.build = nil
	return nil
}

// act ranks the planner's candidate actions against the forecast and
// applies the winner (an empty forecast plans nothing).
func (c *controller) act(step int, f modeling.IntervalForecast) error {
	if len(f.Queries) == 0 {
		return nil
	}
	actions, err := c.p.PlanActions(c.p.DB.Knobs().ExecutionMode, f, c.cand)
	if err != nil {
		return err
	}
	return c.applyBest(step, actions)
}

// applyBest is the selection rule over a best-first action list: apply the
// first action that clears minImprovement, passing over index builds while
// one is in flight, and at most one action per step.
func (c *controller) applyBest(step int, actions []planner.Action) error {
	for _, a := range actions {
		if a.PredictedImprovement < minImprovement {
			break // sorted best-first: nothing further qualifies
		}
		if a.Kind == planner.ActionIndexBuild && c.build != nil {
			continue // one build at a time
		}
		handle, err := c.p.Apply(a, nil)
		if err != nil {
			return fmt.Errorf("selfdrive: applying %v: %w", a, err)
		}
		var kind, detail string
		switch a.Kind {
		case planner.ActionModeChange:
			kind = "mode-change"
			detail = a.Mode.String()
		case planner.ActionIndexBuild:
			kind = "index-build-start"
			detail = fmt.Sprintf("%s threads=%d", a.Index.Name, a.Threads)
			c.build = handle
		case planner.ActionRepartition:
			kind = "repartition"
			detail = fmt.Sprintf("parts=%d", a.Partitions)
		case planner.ActionSetDOP:
			kind = "set-dop"
			detail = fmt.Sprintf("dop=%d", a.DOP)
		default:
			return fmt.Errorf("selfdrive: applied %v, which the action log cannot name", a)
		}
		c.actions = append(c.actions, AppliedAction{
			Interval: step, Kind: kind, Detail: detail,
			PredictedImprovement: a.PredictedImprovement,
		})
		break // apply the winning action only
	}
	return nil
}

// newHistory returns the windowed forecast store: plain, or — with clusters
// > 0 — clustered into at most that many template clusters.
func newHistory(intervalUS float64, window, clusters int) *forecast.History {
	if clusters > 0 {
		return forecast.NewClusteredHistory(intervalUS, window, forecast.NewClusterer(clusters, 0))
	}
	return forecast.NewWindowedHistory(intervalUS, window)
}

// volumes is one step's predicted next-interval query volume: per template,
// or per cluster when the history is clustered.
type volumes struct {
	hist      *forecast.History
	templates map[string]float64 // plain history: prediction by template name
	clusters  []float64          // clustered history: prediction by cluster id (0 = none)
}

// predictVolumes forecasts the next interval from the history's last window
// intervals: O(templates) on a plain history, O(K) — independent of the
// template population — on a clustered one.
func predictVolumes(hist *forecast.History, window int) *volumes {
	fc := forecast.Forecaster{Window: window}
	v := &volumes{hist: hist}
	if hist.Clustered() {
		preds := fc.ForecastClusters(hist, 1)
		v.clusters = make([]float64, len(preds))
		for id, series := range preds {
			if len(series) > 0 && series[0] > 0 {
				v.clusters[id] = series[0]
			}
		}
		return v
	}
	predictions := fc.ForecastAll(hist, 1)
	v.templates = make(map[string]float64, len(predictions))
	for name, series := range predictions {
		if len(series) > 0 {
			v.templates[name] = series[0]
		}
	}
	return v
}

// perTemplate returns the predictions as per-template volumes covering
// names: cluster predictions fan out to their members by recency-weighted
// share.
func (v *volumes) perTemplate(names []string) map[string]float64 {
	if v.hist.Clustered() {
		return v.hist.FanOut(v.clusters, names)
	}
	return v.templates
}

// forecast converts the predicted volumes into the inference pipeline's
// input, one entry per positive prediction whose name rep resolves to a
// representative plan (nil = none): per template in sorted-name order, or
// per cluster in id order — the leader's plan carrying the members' summed
// volume, so planning cost follows K, not the population.
func (v *volumes) forecast(intervalUS float64, threads int, rep func(name string) plan.Node) modeling.IntervalForecast {
	f := modeling.IntervalForecast{IntervalUS: intervalUS, Threads: threads}
	add := func(name string, count float64, members int) {
		if count <= 0 {
			return
		}
		node := rep(name)
		if node == nil {
			return
		}
		f.Queries = append(f.Queries, modeling.ForecastQuery{
			Plan: node, Count: count, Fingerprint: plan.Fingerprint(node), Members: members,
		})
	}
	if c := v.hist.Clusterer(); c != nil {
		for id, count := range v.clusters {
			add(c.Leader(id), count, c.MemberCount(id))
		}
	} else {
		for _, name := range sortedTemplates(v.templates) {
			add(name, v.templates[name], 0)
		}
	}
	return f
}

// volumeScore accumulates the per-template volume-forecast error: each
// step's predictions wait in pending until the next interval's actuals
// arrive.
type volumeScore struct {
	pending   *volumes
	pred, obs []float64
}

// settle scores the pending predictions against the arrived counts over
// names (no-op when nothing is pending).
func (s *volumeScore) settle(counts map[string]float64, names []string) {
	if s.pending == nil {
		return
	}
	fan := s.pending.perTemplate(names)
	for _, name := range names {
		s.pred = append(s.pred, fan[name])
		s.obs = append(s.obs, counts[name])
	}
	s.pending = nil
}
