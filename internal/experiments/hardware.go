package experiments

import (
	"io"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/exec"
	"mb2/internal/hw"
	"mb2/internal/metrics"
	"mb2/internal/modeling"
	"mb2/internal/plan"
	"mb2/internal/runner"
	"mb2/internal/workload"
)

// runnerCtx builds an execution context on the default CPU with the given
// mode and simulated-update setting.
func runnerCtx(db *engine.DB, mode catalog.ExecutionMode, sleepEvery int) *exec.Ctx {
	return &exec.Ctx{
		DB:            db,
		Tracker:       metrics.NewTracker(nil, hw.NewThread(db.Machine.CPU)),
		Mode:          mode,
		Contenders:    1,
		JHTSleepEvery: sleepEvery,
	}
}

func mustRun(ctx *exec.Ctx, p plan.Node) {
	if _, err := exec.Execute(ctx, p); err != nil {
		panic("experiments: " + err.Error())
	}
}

// Fig10Row compares the single-frequency and multi-frequency models on one
// test frequency.
type Fig10Row struct {
	FreqGHz     float64
	TrainedBase float64 // model trained only at the base frequency
	TrainedMany float64 // model trained across a frequency range
}

// Fig10Result covers both workloads of the hardware-context experiment.
type Fig10Result struct {
	TPCH []Fig10Row // avg relative error
	TPCC []Fig10Row // avg absolute error per template (us)
}

// hwRunnerNames are the runners needed to model the read-only query
// templates used by the hardware-context evaluation.
var hwRunnerNames = map[string]bool{
	"seq_scan": true, "idx_scan": true, "hash_join": true,
	"agg": true, "sort": true, "output": true,
}

// appendFreq extends every record's features with the CPU frequency: the
// hardware-context feature of Sec 8.6.
func appendFreq(recs []metrics.Record, ghz float64) []metrics.Record {
	out := make([]metrics.Record, len(recs))
	for i, r := range recs {
		f := make([]float64, len(r.Features)+1)
		copy(f, r.Features)
		f[len(r.Features)] = ghz
		out[i] = metrics.Record{Kind: r.Kind, Features: f, Labels: r.Labels}
	}
	return out
}

// trainHWModels runs the execution-OU runners at each frequency, appends
// the frequency feature, and trains one model set.
func trainHWModels(cfg Config, freqs []float64) (*modeling.ModelSet, error) {
	combined := metrics.NewRepository()
	for _, f := range freqs {
		rcfg := cfg.Runner
		rcfg.CPU = rcfg.CPU.WithFreq(f)
		repo := metrics.NewRepository()
		for _, r := range runner.AllRunners() {
			if hwRunnerNames[r.Name] {
				r.Run(repo, rcfg)
			}
		}
		for _, k := range repo.Kinds() {
			combined.Add(appendFreq(repo.Records(k), f)...)
		}
	}
	return modeling.TrainModelSet(combined, cfg.Train)
}

// hwPredict translates a template and predicts with the frequency feature
// appended.
func hwPredict(ms *modeling.ModelSet, tr *modeling.Translator, q runner.QueryTemplate, ghz float64) (float64, error) {
	total := 0.0
	for _, inv := range tr.TranslatePlan(q.Plan) {
		f := make([]float64, len(inv.Features)+1)
		copy(f, inv.Features)
		f[len(inv.Features)] = ghz
		p, err := ms.PredictOU(modeling.OUInvocation{Kind: inv.Kind, Features: f})
		if err != nil {
			return 0, err
		}
		total += p.ElapsedUS
	}
	return total, nil
}

// Fig10 reproduces the hardware-context experiment: OU-models extended with
// the CPU frequency, trained either at the base frequency only or across a
// frequency range, and tested at unseen frequencies (Sec 8.6).
func Fig10(p *Pipeline) (Fig10Result, error) {
	res := Fig10Result{}
	baseModels, err := trainHWModels(p.Cfg, []float64{2.2})
	if err != nil {
		return res, err
	}
	manyModels, err := trainHWModels(p.Cfg, []float64{1.2, 1.8, 2.2, 2.6, 3.1})
	if err != nil {
		return res, err
	}
	testFreqs := []float64{1.6, 2.0, 2.4, 2.8}

	evalWorkload := func(db *engine.DB, templates []runner.QueryTemplate, absolute bool) ([]Fig10Row, error) {
		var rows []Fig10Row
		for _, f := range testFreqs {
			db.Machine.CPU = db.Machine.CPU.WithFreq(f)
			actual := measureTemplates(db, templates, catalog.Interpret, 3, 0)
			tr := modeling.NewTranslator(db, catalog.Interpret)
			basePred := make([]float64, len(templates))
			manyPred := make([]float64, len(templates))
			for i, q := range templates {
				if basePred[i], err = hwPredict(baseModels, tr, q, f); err != nil {
					return nil, err
				}
				if manyPred[i], err = hwPredict(manyModels, tr, q, f); err != nil {
					return nil, err
				}
			}
			row := Fig10Row{FreqGHz: f}
			if absolute {
				row.TrainedBase = absErr(basePred, actual)
				row.TrainedMany = absErr(manyPred, actual)
			} else {
				row.TrainedBase = relErr(basePred, actual)
				row.TrainedMany = relErr(manyPred, actual)
			}
			rows = append(rows, row)
		}
		return rows, nil
	}

	dbH, tplH, err := p.LoadTPCH(1)
	if err != nil {
		return res, err
	}
	if res.TPCH, err = evalWorkload(dbH, tplH, false); err != nil {
		return res, err
	}

	dbC := engine.Open(catalog.DefaultKnobs())
	tpcc := workload.TPCC{CustomersPerDistrict: 100}
	if err := tpcc.Load(dbC, 1, p.Cfg.Seed); err != nil {
		return res, err
	}
	if res.TPCC, err = evalWorkload(dbC, tpcc.Templates(dbC, p.Cfg.Seed), true); err != nil {
		return res, err
	}
	return res, nil
}

// PrintFig10 renders both panels.
func PrintFig10(w io.Writer, r Fig10Result) {
	fprintf(w, "Fig 10a: TPC-H query runtime prediction across CPU frequencies (rel error)\n")
	fprintf(w, "%-8s %14s %22s\n", "freq", "train@2.2GHz", "train@1.2-3.1GHz")
	for _, row := range r.TPCH {
		fprintf(w, "%-8.1f %14.2f %22.2f\n", row.FreqGHz, row.TrainedBase, row.TrainedMany)
	}
	fprintf(w, "Fig 10b: TPC-C query runtime prediction across CPU frequencies (abs error, us)\n")
	fprintf(w, "%-8s %14s %22s\n", "freq", "train@2.2GHz", "train@1.2-3.1GHz")
	for _, row := range r.TPCC {
		fprintf(w, "%-8.1f %14.2f %22.2f\n", row.FreqGHz, row.TrainedBase, row.TrainedMany)
	}
}
