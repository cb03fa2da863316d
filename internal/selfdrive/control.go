package selfdrive

import (
	"fmt"
	"time"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/fold"
	"mb2/internal/forecast"
	"mb2/internal/modeling"
	"mb2/internal/ou"
	"mb2/internal/plan"
	"mb2/internal/planner"
	"mb2/internal/session"
)

// minImprovement is the predicted relative latency reduction an action must
// promise to be applied; maxImpactRatio is the default during-build impact
// budget the planner holds index builds to.
const (
	minImprovement = 0.02
	maxImpactRatio = 2.0
)

// LiveController is the loop's one control step over a process list. It
// sees whatever feeds the registry — Run's sessions, the wire server, an
// embedded harness — only by draining it, and owns the forecast history,
// the in-flight index build, the published indexes, the action log and the
// run's record: the digest, the predicted and observed latency series and
// the inference timings.
type LiveController struct {
	reg  *session.Registry
	cfg  Config
	p    *planner.Planner
	cand planner.CandidateConfig
	hist *forecast.History

	// rep resolves a template name to its representative plan rewritten
	// through the given published indexes (nil: the canonical plan the
	// clusterer keys on). By default it is the newest plan live traffic
	// surfaced (reps), which already runs through whatever is published;
	// Run resolves through its scenario instead.
	rep  func(name string, published []planner.IndexCandidate) plan.Node
	reps map[string]plan.Node

	ticks   int
	threads int // sessions the last tick drained: the forecast's concurrency
	volume  volumeScore

	build     *planner.BuildHandle
	published []planner.IndexCandidate
	actions   []AppliedAction

	// predicted is the latency predicted for the coming interval (0: none
	// yet); predSeries and obsSeries pair each prediction with the latency
	// its interval observed, and inferenceUS times each prediction.
	predicted             float64
	predSeries, obsSeries []float64
	inferenceUS           []float64
	dig                   fold.H
}

// NewLiveController attaches a controller, sized by the run's Config, to a
// process list.
func NewLiveController(reg *session.Registry, ms *modeling.ModelSet, cfg Config) *LiveController {
	cfg = cfg.withDefaults()
	p := planner.New(reg.DB(), ms)
	p.Cache = modeling.NewPredictionCache()
	c := &LiveController{
		reg: reg,
		cfg: cfg,
		p:   p,
		cand: planner.CandidateConfig{
			ThreadCandidates: cfg.ThreadCandidates,
			MaxImpactRatio:   cfg.MaxImpactRatio,
		},
		hist: newHistory(cfg.IntervalUS, cfg.HistoryWindow, cfg.Clusters),
		reps: make(map[string]plan.Node),
		dig:  fold.New(),
	}
	c.rep = func(name string, _ []planner.IndexCandidate) plan.Node { return c.reps[name] }
	return c
}

// Actions returns everything the controller has applied so far.
func (c *LiveController) Actions() []AppliedAction { return c.actions }

// History exposes the forecast store (observability).
func (c *LiveController) History() *forecast.History { return c.hist }

// Tick is the control step over the traffic since the last one. It drains
// the registry (an ascending session-ID merge, the serial-order
// reduction), extends the history and scores the last volume forecast,
// charges whole-machine contention over the drained per-session load plus
// the build's active threads, advances each build thread by what
// contention left it and publishes a finished build. The interval's
// report — its volume, its contention-scaled average latency and the
// prediction made for it — then folds into the digest. Once the history
// holds two intervals the step forecasts the next one (held back for the
// volume scoring), acts on it every PlanEvery-th step, and predicts its
// latency with whatever is now in effect.
func (c *LiveController) Tick() (IntervalReport, error) {
	knobs := c.p.DB.Knobs() // only a step moves them: the knobs the interval ran with
	obs := c.reg.DrainObservations()
	// Keep the newest representative plan the traffic surfaced per
	// template: the plans that run now (after an index publish, the index
	// scans) are the ones the forecast must predict over.
	for name, node := range obs.Reps {
		c.reps[name] = node
	}
	registerTemplates(c.hist.Clusterer(), c.p.DB, obs.Counts, c.rep)
	c.hist.Append(obs.Counts)
	names := obs.Templates()
	c.volume.settle(obs.Counts, names)
	c.threads = max(len(obs.Load), 1)

	load := obs.Load
	if c.build != nil {
		load = append(load, c.build.Demand(c.cfg.IntervalUS)...)
	}
	ratios := c.p.DB.Machine.ContentionRatios(load, c.cfg.IntervalUS)
	if c.build != nil {
		c.build.Progress(ratios[len(obs.Load):], c.cfg.IntervalUS)
	}
	r := IntervalReport{
		Interval: c.ticks, PredictedAvgLatencyUS: c.predicted, Mode: knobs.ExecutionMode,
		DOP: max(knobs.ScanDOP, 1), Partitions: max(knobs.PartitionCount, 1),
	}
	if err := c.publishIfDone(c.ticks); err != nil {
		return r, err
	}
	c.ticks++
	r.Building, r.IndexLive = c.build != nil, len(c.published) > 0

	// The observed latency: each session's load inflated by its contention
	// ratios, over the interval's queries.
	var latSum float64
	for s, m := range obs.Load {
		latSum += m.ScaleVec(ratios[s]).ElapsedUS
	}
	for _, name := range names {
		r.Queries += int(obs.Counts[name])
	}
	if r.Queries > 0 {
		r.ObservedAvgLatencyUS = latSum / float64(r.Queries)
	}
	if c.predicted > 0 {
		c.predSeries = append(c.predSeries, c.predicted)
		c.obsSeries = append(c.obsSeries, r.ObservedAvgLatencyUS)
	}
	c.dig = foldInterval(c.dig, r.Interval, names, obs.Counts, r.ObservedAvgLatencyUS, r.Mode, c.actions)

	c.predicted = 0
	if c.hist.Len() < 2 {
		return r, nil
	}
	f := c.forecast()
	if c.ticks%c.cfg.PlanEvery == 0 {
		if err := c.act(c.ticks-1, f); err != nil {
			return r, err
		}
	}
	tr := modeling.NewTranslator(c.p.DB, c.p.DB.Knobs().ExecutionMode)
	tr.Cache = c.p.Cache
	var af *modeling.ActionForecast
	if b := c.build; b != nil {
		af = &modeling.ActionForecast{IndexBuild: &modeling.IndexBuildAction{
			Table: b.Candidate.Table, KeyCols: b.Candidate.KeyColNames, Threads: b.Threads,
		}}
	}
	start := time.Now()
	pred, err := c.p.Models.PredictInterval(tr, f, af)
	if err != nil {
		return r, err
	}
	c.inferenceUS = append(c.inferenceUS, float64(time.Since(start).Microseconds()))
	c.predicted = pred.AvgQueryLatencyUS
	return r, nil
}

// result is the run's outcome as the controller records it; Run adds the
// interval reports and the sessions' execution counters.
func (c *LiveController) result() *Result {
	res := &Result{
		Actions:        c.actions,
		MAPE:           forecast.MAPE(c.predSeries, c.obsSeries),
		VolumeMAPE:     forecast.MAPE(c.volume.pred, c.volume.obs),
		InferenceUS:    c.inferenceUS,
		HistoryEvicted: c.hist.Evicted(),
		Digest:         c.dig.Sum64(),
	}
	res.CacheHits, res.CacheMisses = c.p.Cache.Stats()
	res.CacheHitRate = c.p.Cache.HitRate()
	res.CacheEvictions = c.p.Cache.Evictions()
	if cl := c.hist.Clusterer(); cl != nil {
		res.TemplatesSeen, res.Clusters = cl.Assigned(), cl.Len()
	} else {
		res.TemplatesSeen = len(c.hist.Templates())
	}
	return res
}

// forecast predicts the next interval's volumes and builds the inference
// input over the representative plans.
func (c *LiveController) forecast() modeling.IntervalForecast {
	c.volume.pending = predictVolumes(c.hist, c.cfg.HistoryWindow)
	return c.volume.pending.forecast(c.cfg.IntervalUS, c.threads,
		func(name string) plan.Node { return c.rep(name, c.published) })
}

// publishIfDone makes a finished build live and records the index-publish
// at this step; an unfinished build stays in flight.
func (c *LiveController) publishIfDone(step int) error {
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
func (c *LiveController) act(step int, f modeling.IntervalForecast) error {
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
func (c *LiveController) applyBest(step int, actions []planner.Action) error {
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

// clusterFeatures folds a representative plan's translated OU invocations
// into a fixed-length feature vector — per OU kind, the invocation count
// and the summed feature mass — the similarity key the clusterer groups
// templates by. Mode is pinned to Interpret so cluster identity never
// depends on the live execution-mode knob.
func clusterFeatures(db *engine.DB, n plan.Node) []float64 {
	tr := modeling.NewTranslator(db, catalog.Interpret)
	vec := make([]float64, 2*ou.NumKinds)
	for _, inv := range tr.TranslatePlan(n) {
		k := int(inv.Kind)
		if k < 0 || k >= ou.NumKinds {
			continue
		}
		vec[2*k]++
		for _, f := range inv.Features {
			vec[2*k+1] += f
		}
	}
	return vec
}

// registerTemplates assigns any unregistered observed template to a
// cluster by the features of its canonical representative plan, in
// sorted-name order so founding decisions are deterministic (nothing to do
// without a clusterer).
func registerTemplates(c *forecast.Clusterer, db *engine.DB, counts map[string]float64, rep func(string, []planner.IndexCandidate) plan.Node) {
	if c == nil {
		return
	}
	for _, name := range sortedTemplates(counts) {
		if _, ok := c.Lookup(name); ok {
			continue
		}
		if node := rep(name, nil); node != nil {
			c.Assign(name, plan.Fingerprint(node), clusterFeatures(db, node))
		} else {
			c.AssignOrphan(name)
		}
	}
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
