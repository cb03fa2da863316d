package experiments

import (
	"io"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/modeling"
	"mb2/internal/planner"
	"mb2/internal/runner"
	"mb2/internal/workload"
)

// customerQueryName is the TPC-C template that looks customers up by last
// name: the query the secondary index accelerates.
const customerQueryName = "OrderStatus#0"

// e2eSetup holds the shared state of the end-to-end experiments.
type e2eSetup struct {
	p     *Pipeline
	tpccB workload.TPCC
	dbC   *engine.DB // TPC-C database (index target)
	dbH   *engine.DB // TPC-H database
	tplH  []runner.QueryTemplate

	threads    int
	perThreadC int
	perThreadH int
	intervalUS float64
}

func newE2ESetup(p *Pipeline) (*e2eSetup, error) {
	// Sized so that (a) the customer table is large enough that the
	// by-last-name scan hurts and the index build spans many intervals,
	// and (b) the build threads push the machine into CPU oversubscription
	// (the paper's 20-core box behaves the same way at larger scale).
	s := &e2eSetup{
		p:          p,
		tpccB:      workload.TPCC{CustomersPerDistrict: 2000},
		threads:    8,
		perThreadC: 32,
		perThreadH: 5,
		intervalUS: 500,
	}
	s.dbC = engine.Open(catalog.DefaultKnobs())
	if err := s.tpccB.Load(s.dbC, 1, p.Cfg.Seed); err != nil {
		return nil, err
	}
	var err error
	s.dbH, s.tplH, err = p.LoadTPCH(1)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// ccfg returns the concurrent-execution configuration of the end-to-end
// runs: the paper's 20-core machine.
func (s *e2eSetup) ccfg() runner.ConcurrentConfig {
	c := runner.DefaultConcurrentConfig()
	c.IntervalUS = s.intervalUS
	c.Machine.Cores = 20
	return c
}

// tpccTemplates builds the TPC-C read templates, optionally forcing the
// what-if index choice for the customer lookup.
func (s *e2eSetup) tpccTemplates(forceIndex *bool) []runner.QueryTemplate {
	b := s.tpccB
	b.ForceCustomerIndex = forceIndex
	return b.Templates(s.dbC, s.p.Cfg.Seed)
}

// forecastFor converts a template set into an interval forecast.
func (s *e2eSetup) forecastFor(templates []runner.QueryTemplate, perThread int) modeling.IntervalForecast {
	count := float64(s.threads*perThread) / float64(len(templates))
	f := modeling.IntervalForecast{
		IntervalUS: s.intervalUS,
		Threads:    s.threads,
	}
	for _, q := range templates {
		f.Queries = append(f.Queries, modeling.ForecastQuery{Plan: q.Plan, Count: count})
	}
	return f
}

// indexAction describes the CUSTOMER secondary-index build.
func (s *e2eSetup) indexAction(threads int) modeling.IndexBuildAction {
	return modeling.IndexBuildAction{
		Table:   "customer",
		KeyCols: workload.CustomerSecondaryKeyCols(),
		Threads: threads,
	}
}

// Fig1Result is the index-build example: latency timelines for two build
// parallelism choices.
type Fig1Result struct {
	IntervalUS float64
	// Latency4/Latency8 are per-interval average TPC-C query latencies.
	Latency4, Latency8 []float64
	// Build windows (start/end in simulated microseconds).
	Start4, End4, Start8, End8 float64
}

// Fig1 reproduces the motivating example: TPC-C runs without the CUSTOMER
// secondary index; partway through, the DBMS builds it with 4 or 8 threads.
// Fewer threads hurt the workload less but take longer (Sec 2.1).
func Fig1(p *Pipeline) (Fig1Result, error) {
	res := Fig1Result{}
	run := func(buildThreads int) ([]float64, float64, float64, error) {
		s, err := newE2ESetup(p)
		if err != nil {
			return nil, 0, 0, err
		}
		res.IntervalUS = s.intervalUS
		ccfg := s.ccfg()
		sim, err := planner.Simulate(planner.SimConfig{
			DB:         s.dbC,
			Concurrent: ccfg,
			Threads:    s.threads,
			Intervals:  32,
			WorkloadAt: func(i int, built bool) (*engine.DB, []runner.QueryTemplate, int) {
				return s.dbC, s.tpccTemplates(nil), s.perThreadC
			},
			BuildStart:   4,
			BuildThreads: buildThreads,
			IndexName:    workload.CustomerSecondaryIndex,
			IndexTable:   "customer",
			IndexCols:    workload.CustomerSecondaryKeyCols(),
		})
		if err != nil {
			return nil, 0, 0, err
		}
		lat := make([]float64, len(sim.Intervals))
		for i, iv := range sim.Intervals {
			lat[i] = iv.AvgLatencyUS
		}
		return lat, sim.BuildStartUS, sim.BuildEndUS, nil
	}
	var err error
	if res.Latency4, res.Start4, res.End4, err = run(4); err != nil {
		return res, err
	}
	if res.Latency8, res.Start8, res.End8, err = run(8); err != nil {
		return res, err
	}
	return res, nil
}

// PrintFig1 renders the two timelines.
func PrintFig1(w io.Writer, r Fig1Result) {
	fprintf(w, "Fig 1: TPC-C query latency while building the CUSTOMER index\n")
	fprintf(w, "build windows: 4T [%.1fms, %.1fms]  8T [%.1fms, %.1fms]\n",
		r.Start4/1e3, r.End4/1e3, r.Start8/1e3, r.End8/1e3)
	fprintf(w, "%-9s %14s %14s\n", "time(ms)", "4 threads(us)", "8 threads(us)")
	for i := range r.Latency4 {
		fprintf(w, "%-9.2f %14.1f %14.1f\n",
			float64(i)*r.IntervalUS/1e3, r.Latency4[i], r.Latency8[i])
	}
}

// Fig11Interval is one interval of the end-to-end self-driving timeline.
type Fig11Interval struct {
	TimeS float64
	// Normalized latencies (each phase's default-configuration mean = 1).
	ActualNorm float64
	PredNorm   float64
	Phase      string
	Event      string
	// CPU utilization signals (Fig 11b).
	ActualCustomerCPU float64
	PredCustomerCPU   float64
	ActualBuildCPU    float64
	PredBuildCPU      float64
}

// Fig11Result is the end-to-end self-driving execution.
type Fig11Result struct {
	Intervals []Fig11Interval
	// Mode is the compiled-mode flip and Index the index build, each priced
	// against the interpreted baseline of its phase.
	Mode, Index planner.Action
	// Actual vs predicted build window (seconds).
	BuildStartS, BuildEndS, PredBuildEndS float64
}

// Fig11 reproduces the end-to-end scenario (Sec 8.7): alternating
// TPC-C/TPC-H phases; the self-driving DBMS changes the execution-mode knob
// for TPC-H, then builds the CUSTOMER secondary index with the given thread
// count before TPC-C returns; MB2's models predict the latency and CPU
// effects of both actions ahead of time.
func Fig11(p *Pipeline, buildThreads int) (Fig11Result, error) {
	res := Fig11Result{}
	s, err := newE2ESetup(p)
	if err != nil {
		return res, err
	}

	// Phase boundaries (interval indices).
	const (
		tpchStart  = 6
		modeSwitch = 10
		buildAt    = 14
		tpccBack   = 30
		total      = 40
	)

	// --- Planning with MB2's models (all predictions made ahead of time).
	pl := planner.New(s.dbC, p.Models)
	forecastH := s.forecastFor(s.tplH, s.perThreadH)
	// The Sec 8.7 scenario is the paper's two-mode knob flip: compiled is
	// the one candidate, so the vectorized extension mode cannot hijack it.
	flip := []planner.Action{{Kind: planner.ActionModeChange, Mode: catalog.Compile}}
	if err := pl.Price(catalog.Interpret, forecastH, planner.WhatIf{Actions: flip}); err != nil {
		return res, err
	}
	res.Mode = flip[0]
	compiled := res.Mode.PredictedImprovement > 0
	useIdx, noIdx := true, false
	forecastCPre := s.forecastFor(s.tpccTemplates(&noIdx), s.perThreadC)
	forecastCPost := s.forecastFor(s.tpccTemplates(&useIdx), s.perThreadC)
	build := []planner.Action{{Kind: planner.ActionIndexBuild, Threads: buildThreads,
		Index: &planner.IndexCandidate{Table: "customer", Name: workload.CustomerSecondaryIndex,
			KeyColNames: workload.CustomerSecondaryKeyCols()}}}
	if err := pl.Price(catalog.Interpret, forecastCPre, planner.WhatIf{Actions: build, After: forecastCPost}); err != nil {
		return res, err
	}
	res.Index = build[0]

	// Predicted interval-level latency and CPU signals.
	trI := modeling.NewTranslator(s.dbC, catalog.Interpret)
	trH := modeling.NewTranslator(s.dbH, catalog.Interpret)
	trHC := modeling.NewTranslator(s.dbH, catalog.Compile)
	predCPre, err := p.Models.PredictInterval(trI, forecastCPre, nil)
	if err != nil {
		return res, err
	}
	predCPost, err := p.Models.PredictInterval(trI, forecastCPost, nil)
	if err != nil {
		return res, err
	}
	predHInterp, err := p.Models.PredictInterval(trH, forecastH, nil)
	if err != nil {
		return res, err
	}
	predHComp, err := p.Models.PredictInterval(trHC, forecastH, nil)
	if err != nil {
		return res, err
	}
	action := s.indexAction(buildThreads)
	predHBuild, err := p.Models.PredictInterval(trHC, forecastH,
		&modeling.ActionForecast{IndexBuild: &action, Translator: trI})
	if err != nil {
		return res, err
	}

	// --- Actual execution.
	ccfg := s.ccfg()
	sim, err := planner.Simulate(planner.SimConfig{
		DB:         s.dbC,
		Concurrent: ccfg,
		Threads:    s.threads,
		Intervals:  total,
		WorkloadAt: func(i int, built bool) (*engine.DB, []runner.QueryTemplate, int) {
			if i >= tpchStart && i < tpccBack {
				return s.dbH, s.tplH, s.perThreadH
			}
			return s.dbC, s.tpccTemplates(nil), s.perThreadC
		},
		ModeAt: func(i int) catalog.ExecutionMode {
			if i >= modeSwitch && i < tpccBack && compiled {
				return catalog.Compile
			}
			return catalog.Interpret
		},
		BuildStart:   buildAt,
		BuildThreads: buildThreads,
		IndexName:    workload.CustomerSecondaryIndex,
		IndexTable:   "customer",
		IndexCols:    workload.CustomerSecondaryKeyCols(),
	})
	if err != nil {
		return res, err
	}
	res.BuildStartS = sim.BuildStartUS / 1e6
	res.BuildEndS = sim.BuildEndUS / 1e6
	res.PredBuildEndS = (sim.BuildStartUS + predHBuild.ActionElapsedUS) / 1e6

	// Normalization baselines: each phase under the default configuration.
	baseC := sim.Intervals[0].AvgLatencyUS
	baseH := sim.Intervals[tpchStart].AvgLatencyUS

	// Predicted customer-query CPU per interval (the Fig 11b explanation).
	predCustomerPre := templateCPUShare(p, forecastCPre, predCPre, customerQueryName, s)
	predCustomerPost := templateCPUShare(p, forecastCPost, predCPost, customerQueryName, s)
	capacity := float64(ccfg.Machine.Cores) * s.intervalUS
	predBuildCPU := predHBuild.ActionCPUUS / (capacity * (predHBuild.ActionElapsedUS/s.intervalUS + 1e-9))

	for i, iv := range sim.Intervals {
		out := Fig11Interval{
			TimeS: iv.StartUS / 1e6,
			Event: iv.Event,
		}
		inTPCH := i >= tpchStart && i < tpccBack
		switch {
		case inTPCH:
			out.Phase = "TPC-H"
			out.ActualNorm = iv.AvgLatencyUS / baseH
			switch {
			case iv.Building:
				out.PredNorm = predHBuild.AvgQueryLatencyUS / baseH
				out.PredBuildCPU = predBuildCPU
			case i >= modeSwitch && compiled:
				out.PredNorm = predHComp.AvgQueryLatencyUS / baseH
			default:
				out.PredNorm = predHInterp.AvgQueryLatencyUS / baseH
			}
		default:
			out.Phase = "TPC-C"
			out.ActualNorm = iv.AvgLatencyUS / baseC
			if iv.IndexBuilt {
				out.PredNorm = predCPost.AvgQueryLatencyUS / predCPre.AvgQueryLatencyUS
				out.PredCustomerCPU = predCustomerPost
			} else {
				out.PredNorm = 1
				out.PredCustomerCPU = predCustomerPre
			}
		}
		out.ActualCustomerCPU = iv.CPUByTemplate[customerQueryName]
		out.ActualBuildCPU = iv.BuildCPUUtil
		if i == modeSwitch && compiled && out.Event == "" {
			out.Event = "change execution mode knob"
		}
		res.Intervals = append(res.Intervals, out)
	}
	return res, nil
}

// templateCPUShare computes one template's predicted CPU share of the
// machine within an interval.
func templateCPUShare(p *Pipeline, f modeling.IntervalForecast,
	pred modeling.IntervalPrediction, name string, s *e2eSetup) float64 {
	capacity := float64(runner.DefaultConcurrentConfig().Machine.Cores) * s.intervalUS
	templates := s.tpccTemplates(nil)
	for i := range f.Queries {
		if i < len(templates) && templates[i].Name == name && i < len(pred.Queries) {
			return pred.Queries[i].Isolated.CPUTimeUS * f.Queries[i].Count / capacity
		}
	}
	return 0
}

// PrintFig11 renders the timeline.
func PrintFig11(w io.Writer, r Fig11Result, buildThreads int) {
	fprintf(w, "Fig 11: end-to-end self-driving execution (index build with %d threads)\n", buildThreads)
	target := catalog.Interpret
	if r.Mode.PredictedImprovement > 0 {
		target = r.Mode.Mode
	}
	fprintf(w, "mode decision: %s->%s (predicted %.0f%% latency reduction)\n",
		catalog.Interpret, target, r.Mode.PredictedImprovement*100)
	fprintf(w, "index decision: threads=%d %v\n", r.Index.Threads, r.Index.Decision)
	fprintf(w, "build window: actual [%.2fms, %.2fms], predicted end %.2fms\n",
		r.BuildStartS*1e3, r.BuildEndS*1e3, r.PredBuildEndS*1e3)
	fprintf(w, "%-8s %-6s %11s %9s %8s %8s %8s %8s  %s\n",
		"time(ms)", "phase", "actualNorm", "predNorm",
		"custCPU", "pCust", "buildCPU", "pBuild", "event")
	for _, iv := range r.Intervals {
		fprintf(w, "%-8.2f %-6s %11.2f %9.2f %8.3f %8.3f %8.3f %8.3f  %s\n",
			iv.TimeS*1e3, iv.Phase, iv.ActualNorm, iv.PredNorm,
			iv.ActualCustomerCPU, iv.PredCustomerCPU,
			iv.ActualBuildCPU, iv.PredBuildCPU, iv.Event)
	}
}
