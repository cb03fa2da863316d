// What-if knob analysis: use MB2's models to predict how the execution-mode
// knob (bytecode interpreter vs JIT compilation vs vectorized batches)
// changes each TPC-H query's runtime, then verify against real execution
// under all three settings — the knob-change action of the paper's Fig 11,
// extended to the three-way mode space.
//
//	go run ./examples/whatif_knobs
package main

import (
	"fmt"
	"log"
	"sort"

	"mb2/internal/catalog"
	"mb2/internal/experiments"
	"mb2/internal/modeling"
	"mb2/internal/planner"
)

func main() {
	fmt.Println("training MB2's behavior models (quick sweep)...")
	p, err := experiments.BuildPipeline(experiments.Quick())
	if err != nil {
		log.Fatal(err)
	}
	db, templates, err := p.LoadTPCH(1)
	if err != nil {
		log.Fatal(err)
	}

	trI := modeling.NewTranslator(db, catalog.Interpret)
	trC := modeling.NewTranslator(db, catalog.Compile)
	trV := modeling.NewTranslator(db, catalog.Vectorize)

	fmt.Printf("\n%-6s %14s %14s %14s %12s\n",
		"query", "pred-interp", "pred-compile", "pred-vector", "best-gain")
	for _, q := range templates {
		pi, _, err := p.Models.PredictQuery(trI.TranslatePlan(q.Plan))
		if err != nil {
			log.Fatal(err)
		}
		pc, _, err := p.Models.PredictQuery(trC.TranslatePlan(q.Plan))
		if err != nil {
			log.Fatal(err)
		}
		pv, _, err := p.Models.PredictQuery(trV.TranslatePlan(q.Plan))
		if err != nil {
			log.Fatal(err)
		}
		best := pc.ElapsedUS
		if pv.ElapsedUS < best {
			best = pv.ElapsedUS
		}
		fmt.Printf("%-6s %12.1fus %12.1fus %12.1fus %11.0f%%\n",
			q.Name, pi.ElapsedUS, pc.ElapsedUS, pv.ElapsedUS,
			(1-best/pi.ElapsedUS)*100)
	}

	// The planner's aggregate three-way decision over the forecast interval.
	forecast := modeling.IntervalForecast{IntervalUS: 1_000_000, Threads: 4}
	for _, q := range templates {
		forecast.Queries = append(forecast.Queries, modeling.ForecastQuery{Plan: q.Plan, Count: 10})
	}
	// Price both flips against the interpreted baseline, then rank the
	// three modes: the cheapest wins (ties by the planner's compiled,
	// vectorized, interpreted preference) and is compared with the runner-up.
	pl := planner.New(db, p.Models)
	flips := []planner.Action{
		{Kind: planner.ActionModeChange, Mode: catalog.Compile},
		{Kind: planner.ActionModeChange, Mode: catalog.Vectorize},
	}
	if err := pl.Price(catalog.Interpret, forecast, planner.WhatIf{Actions: flips[:1]}, planner.WhatIf{Actions: flips[1:]}); err != nil {
		log.Fatal(err)
	}
	type modeLatency struct {
		mode catalog.ExecutionMode
		us   float64
	}
	modes := []modeLatency{
		{catalog.Compile, flips[0].Decision.AfterLatencyUS},
		{catalog.Vectorize, flips[1].Decision.AfterLatencyUS},
		{catalog.Interpret, flips[0].Decision.BaselineLatencyUS},
	}
	sort.SliceStable(modes, func(i, j int) bool { return modes[i].us < modes[j].us })
	fmt.Printf("\nplanner decision: switch to %s (predicted %.0f%% avg latency reduction vs runner-up)\n",
		modes[0].mode, (1-modes[0].us/modes[1].us)*100)

	// Verify against real executions in all three modes.
	var actI, actC, actV float64
	for _, q := range templates {
		actI += experiments.MeasureOne(db, q, catalog.Interpret)
	}
	db.SetKnobs(func() catalog.Knobs { k := db.Knobs(); k.ExecutionMode = catalog.Compile; return k }())
	for _, q := range templates {
		actC += experiments.MeasureOne(db, q, catalog.Compile)
	}
	db.SetKnobs(func() catalog.Knobs { k := db.Knobs(); k.ExecutionMode = catalog.Vectorize; return k }())
	for _, q := range templates {
		actV += experiments.MeasureOne(db, q, catalog.Vectorize)
	}
	fmt.Printf("actual: interp=%.1fus compile=%.1fus (%.0f%% reduction) vector=%.1fus (%.0f%% reduction)\n",
		actI, actC, (1-actC/actI)*100, actV, (1-actV/actI)*100)
}
