// SQL + forecasting: drive the engine through plain SQL, let the
// workload-forecasting substrate learn the per-template arrival pattern,
// and have MB2's models predict the next interval's cost — the full
// perception → models → planning loop of a self-driving DBMS (Sec 2).
//
//	go run ./examples/sql_selfdriving
package main

import (
	"fmt"
	"log"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/exec"
	"mb2/internal/experiments"
	"mb2/internal/forecast"
	"mb2/internal/hw"
	"mb2/internal/metrics"
	"mb2/internal/modeling"
	"mb2/internal/sql"
)

func main() {
	fmt.Println("training MB2's behavior models (quick sweep)...")
	p, err := experiments.BuildPipeline(experiments.Quick())
	if err != nil {
		log.Fatal(err)
	}

	db := engine.Open(catalog.DefaultKnobs())
	ctx := &exec.Ctx{
		DB:      db,
		Tracker: metrics.NewTracker(metrics.NewCollector(), hw.NewThread(hw.DefaultCPU())),
		Mode:    catalog.Interpret, Contenders: 1,
	}
	run := func(q string) {
		if _, err := sql.Run(ctx, q); err != nil {
			log.Fatalf("%s: %v", q, err)
		}
	}
	runTxn := func(q string) {
		ctx.Begin()
		if _, err := sql.Run(ctx, q); err != nil {
			log.Fatalf("%s: %v", q, err)
		}
		if err := ctx.Commit(); err != nil {
			log.Fatal(err)
		}
	}

	// Schema and data through SQL.
	run("CREATE TABLE orders (o_id INT, customer INT, total FLOAT)")
	for i := 0; i < 50; i++ {
		runTxn(fmt.Sprintf("INSERT INTO orders VALUES (%d, %d, %d.5), (%d, %d, %d.5)",
			2*i, (2*i)%20, 10*i, 2*i+1, (2*i+1)%20, 10*i+5))
	}
	run("CREATE INDEX orders_pk ON orders (o_id) WITH (threads = 2)")

	// The application's two query templates, and the order the prediction
	// lists them in.
	names := []string{"point", "report"}
	templates := map[string]string{
		"point":  "SELECT * FROM orders WHERE o_id = 42",
		"report": "SELECT customer, sum(total) FROM orders GROUP BY customer ORDER BY customer LIMIT 10",
	}

	// Simulate six observed intervals with a growing report load.
	hist := forecast.NewHistory(1_000_000)
	for interval := 0; interval < 6; interval++ {
		counts := map[string]float64{"point": 200, "report": float64(10 + 20*interval)}
		// Execute a sample of each template so the history reflects real
		// traffic (volumes recorded explicitly below).
		run(templates["point"])
		run(templates["report"])
		hist.Append(counts)
	}

	// Forecast the next interval's volumes.
	fc := forecast.Forecaster{Window: 6}
	horizon := fc.ForecastAll(hist, 1)
	fmt.Printf("\nforecast for the next interval: point=%.0f/s report=%.0f/s\n",
		horizon["point"][0], horizon["report"][0])

	// Translate the forecast into MB2's inference input and predict the
	// interval's behavior.
	planner := sql.NewPlanner(db)
	iv := modeling.IntervalForecast{IntervalUS: hist.IntervalUS(), Threads: 2}
	for _, name := range names {
		st, err := sql.Parse(templates[name])
		if err != nil {
			log.Fatal(err)
		}
		pn, err := planner.Plan(st)
		if err != nil {
			log.Fatal(err)
		}
		iv.Queries = append(iv.Queries, modeling.ForecastQuery{Plan: pn, Count: horizon[name][0]})
	}
	tr := modeling.NewTranslator(db, catalog.Interpret)
	pred, err := p.Models.PredictInterval(tr, iv, nil)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nMB2's prediction for the forecasted interval:")
	for i, q := range pred.Queries {
		fmt.Printf("  %-7s %8.1fus per execution x %.0f executions\n",
			names[i], q.Adjusted.ElapsedUS, iv.Queries[i].Count)
	}
	fmt.Printf("  total query CPU demand: %.1fms across %d worker threads\n",
		pred.QueryCPUUS/1e3, iv.Threads)
	fmt.Printf("  predicted avg latency: %.1fus\n", pred.AvgQueryLatencyUS)
}
