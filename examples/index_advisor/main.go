// Index advisor: the paper's running example (Secs 2.1, 8.7). Should the
// DBMS build the secondary index on CUSTOMER, and with how many threads?
// MB2's models answer the planner's three questions ahead of time: how long
// the action takes, how it impacts the running workload, and how much it
// helps afterwards.
//
//	go run ./examples/index_advisor
package main

import (
	"fmt"
	"log"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/experiments"
	"mb2/internal/modeling"
	"mb2/internal/planner"
	"mb2/internal/workload"
)

func main() {
	fmt.Println("training MB2's behavior models (quick sweep)...")
	p, err := experiments.BuildPipeline(experiments.Quick())
	if err != nil {
		log.Fatal(err)
	}

	// A TPC-C database without the CUSTOMER secondary index.
	bench := workload.TPCC{CustomersPerDistrict: 1000}
	db := engine.Open(catalog.DefaultKnobs())
	if err := bench.Load(db, 1, 1); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded TPC-C: %d customers, no secondary index\n\n",
		int(db.RowCount("customer")))

	// Forecasted workload: the TPC-C query mix, with and without the index
	// (what-if plans).
	forecast := func(useIndex bool) modeling.IntervalForecast {
		b := bench
		b.ForceCustomerIndex = &useIndex
		f := modeling.IntervalForecast{IntervalUS: 1_000_000, Threads: 4}
		for _, q := range b.Templates(db, 1) {
			f.Queries = append(f.Queries, modeling.ForecastQuery{Plan: q.Plan, Count: 100})
		}
		return f
	}

	// One candidate build per thread count, priced against the live
	// forecast; the what-if world runs the post-index plans.
	pl := planner.New(db, p.Models)
	index := planner.IndexCandidate{Table: "customer", Name: workload.CustomerSecondaryIndex,
		KeyColNames: workload.CustomerSecondaryKeyCols()}
	var builds []planner.Action
	for _, threads := range []int{1, 2, 4, 8, 16} {
		builds = append(builds, planner.Action{Kind: planner.ActionIndexBuild, Index: &index, Threads: threads})
	}
	if err := pl.Price(catalog.Interpret, forecast(false), planner.WhatIf{Actions: builds, After: forecast(true)}); err != nil {
		log.Fatal(err)
	}
	best := planner.ChooseIndexThreads(builds, 1.25)

	fmt.Println("candidate plans (predicted by MB2's models):")
	fmt.Printf("%8s %12s %12s %10s %10s\n",
		"threads", "build(ms)", "buildCPU(ms)", "impact", "benefit")
	for _, b := range builds {
		d := b.Decision
		fmt.Printf("%8d %12.2f %12.2f %9.2fx %9.2fx\n",
			b.Threads, d.BuildTimeUS/1e3, d.BuildCPUUS/1e3, d.ImpactRatio(), d.BenefitRatio())
	}
	fmt.Printf("\nchosen deployment (fastest build within a 1.25x impact budget):\n  threads=%d %v\n",
		best.Threads, best.Decision)

	if best.PredictedImprovement > 0 {
		fmt.Printf("\nverdict: build it — predicted %.0f%% faster workload afterwards\n",
			best.PredictedImprovement*100)
	} else {
		fmt.Println("\nverdict: skip it — no predicted benefit")
	}

	// Carry the action out and check the predicted benefit for real.
	_, build, err := db.CreateIndex(nil, db.Machine.CPU, workload.CustomerSecondaryIndex,
		"customer", workload.CustomerSecondaryKeyCols(), false, best.Threads)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nactually built in %.2fms with %d threads (predicted %.2fms)\n",
		build.ElapsedUS/1e3, best.Threads, best.Decision.BuildTimeUS/1e3)
}
