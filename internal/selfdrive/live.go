package selfdrive

import (
	"mb2/internal/forecast"
	"mb2/internal/modeling"
	"mb2/internal/plan"
	"mb2/internal/planner"
	"mb2/internal/session"
)

// LiveConfig sizes a controller attached to a live process list.
type LiveConfig struct {
	// IntervalUS is the nominal interval length the forecast store and
	// build accounting assume per Tick.
	IntervalUS float64
	// HistoryWindow bounds the windowed forecast store.
	HistoryWindow int
	// PlanEvery plans at every Nth tick (1 = every tick).
	PlanEvery int
}

func (cfg LiveConfig) withDefaults() LiveConfig {
	d := DefaultConfig()
	if cfg.IntervalUS <= 0 {
		cfg.IntervalUS = d.IntervalUS
	}
	if cfg.HistoryWindow < 2 {
		cfg.HistoryWindow = d.HistoryWindow
	}
	if cfg.PlanEvery < 1 {
		cfg.PlanEvery = 1
	}
	return cfg
}

// LiveController closes the self-driving loop over a live process list:
// whatever front end feeds the registry (the wire server, an embedded
// harness), each Tick drains the sessions' observations, extends the
// forecast history, and — on planning ticks — runs the same control step
// as Run. Unlike Run, it does not construct the workload: it forecasts over
// the representative plans the traffic itself surfaced.
type LiveController struct {
	reg  *session.Registry
	ctl  controller
	cfg  LiveConfig
	hist *forecast.History

	ticks int
	reps  map[string]plan.Node
}

// NewLiveController attaches a controller to a process list.
func NewLiveController(reg *session.Registry, ms *modeling.ModelSet, cfg LiveConfig) *LiveController {
	cfg = cfg.withDefaults()
	p := planner.New(reg.DB(), ms)
	p.Cache = modeling.NewPredictionCache()
	return &LiveController{
		reg:  reg,
		ctl:  controller{p: p, cand: planner.CandidateConfig{MaxImpactRatio: maxImpactRatio}},
		cfg:  cfg,
		hist: newHistory(cfg.IntervalUS, cfg.HistoryWindow, 0),
		reps: make(map[string]plan.Node),
	}
}

// Actions returns everything the controller has applied so far.
func (c *LiveController) Actions() []AppliedAction { return c.ctl.actions }

// History exposes the forecast store (observability).
func (c *LiveController) History() *forecast.History { return c.hist }

// Tick ingests one interval of live traffic and, on planning ticks, runs
// one forecast-plan-act step. It returns the actions applied this tick.
func (c *LiveController) Tick() ([]AppliedAction, error) {
	obs := c.reg.DrainObservations()
	// Keep the newest representative plan live traffic surfaced per
	// template: the plans that run now (after an index publish, the index
	// scans) are the ones the forecast must predict over.
	for name, node := range obs.Reps {
		c.reps[name] = node
	}
	c.hist.Append(obs.Counts)
	tick := c.ticks
	c.ticks++
	before := len(c.ctl.actions)

	// Advance an in-progress build: the live controller charges dedicated
	// build threads at unit speed (it does not model whole-machine
	// contention the way the embedded loop does).
	if b := c.ctl.build; b != nil {
		for j := 0; j < b.Threads; j++ {
			b.Advance(j, c.cfg.IntervalUS)
		}
	}
	if err := c.ctl.publishIfDone(tick); err != nil {
		return nil, err
	}
	if c.hist.Len() >= 2 && c.ticks%c.cfg.PlanEvery == 0 {
		if err := c.ctl.act(tick, c.forecast()); err != nil {
			return nil, err
		}
	}
	return c.ctl.actions[before:], nil
}

// forecast builds the inference input from the forecast history and the
// representative plans live traffic surfaced. Threads reflects the process
// list's current concurrency.
func (c *LiveController) forecast() modeling.IntervalForecast {
	return predictVolumes(c.hist, c.cfg.HistoryWindow).forecast(c.cfg.IntervalUS, max(c.reg.Len(), 1),
		func(name string) plan.Node { return c.reps[name] })
}
