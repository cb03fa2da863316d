// Query prediction: train MB2 once on synthetic OU sweeps, then predict the
// runtime of every TPC-H query template from its plan alone and compare
// against real execution — including on a dataset 10x larger than the
// training sweeps ever saw (the Fig 7a generalization property).
//
//	go run ./examples/query_prediction
package main

import (
	"fmt"
	"log"

	"mb2/internal/catalog"
	"mb2/internal/experiments"
	"mb2/internal/modeling"
)

func main() {
	fmt.Println("training MB2's behavior models (quick sweep)...")
	p, err := experiments.BuildPipeline(experiments.Quick())
	if err != nil {
		log.Fatal(err)
	}

	for _, scale := range []struct {
		name string
		mult float64
	}{{"TPC-H 1x", 1}, {"TPC-H 10x", 10}} {
		db, templates, err := p.LoadTPCH(scale.mult)
		if err != nil {
			log.Fatal(err)
		}
		tr := modeling.NewTranslator(db, catalog.Interpret)
		fmt.Printf("\n%s (%d lineitem rows):\n", scale.name, int(db.RowCount("lineitem")))
		fmt.Printf("%-6s %12s %12s %8s\n", "query", "actual(us)", "pred(us)", "err")
		var totalErr float64
		for _, q := range templates {
			actual := experiments.MeasureOne(db, q, catalog.Interpret)
			pred, _, err := p.Models.PredictQuery(tr.TranslatePlan(q.Plan))
			if err != nil {
				log.Fatal(err)
			}
			rel := (pred.ElapsedUS - actual) / actual
			if rel < 0 {
				rel = -rel
			}
			totalErr += rel
			fmt.Printf("%-6s %12.1f %12.1f %7.0f%%\n", q.Name, actual, pred.ElapsedUS, rel*100)
		}
		fmt.Printf("average relative error: %.0f%%\n", totalErr/float64(len(templates))*100)
	}
}
