// Package experiments reproduces every table and figure of the paper's
// evaluation (Sec 8) on the simulated substrate: data generation, model
// training, accuracy/generalization measurements, interference, adaptation,
// robustness, hardware context, and the end-to-end self-driving scenario.
// Each experiment returns a structured result and can print the same
// rows/series the paper reports.
package experiments

import (
	"fmt"
	"io"
	"sync"
	"time"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/metrics"
	"mb2/internal/modeling"
	"mb2/internal/runner"
	"mb2/internal/workload"
)

// Config scales the experiment suite.
type Config struct {
	Runner     runner.Config
	Train      modeling.TrainOptions
	TPCHScale  float64 // scale for the "1 GB" dataset
	IntervalUS float64
	// InterferenceThreads are the concurrent-runner thread counts used for
	// training (the paper trains on odd counts and tests on even ones).
	InterferenceThreads []int
	InterferenceRates   []int
	Seed                int64
	// Jobs is the pipeline-wide worker-pool bound (the -j knob): <= 0
	// selects runtime.GOMAXPROCS(0), 1 is the serial path. BuildPipeline
	// and TrainInterference propagate it into the runner sweep, the
	// concurrent runners, and model training; results are bit-for-bit
	// identical at every setting.
	Jobs int
}

// Quick returns a configuration sized for tests and benches: small sweeps,
// two candidate algorithm families, sub-minute end-to-end runtime.
func Quick() Config {
	rc := runner.DefaultConfig()
	rc.MaxRows = 2048
	rc.Repetitions = 3
	rc.Warmups = 1
	to := modeling.DefaultTrainOptions()
	to.Candidates = []string{"huber", "gbm"}
	return Config{
		Runner:              rc,
		Train:               to,
		TPCHScale:           0.05,
		IntervalUS:          200_000,
		InterferenceThreads: []int{1, 3, 5, 7, 9},
		InterferenceRates:   []int{1, 2},
		Seed:                1,
	}
}

// Full returns the paper-scale configuration (minutes of runtime).
func Full() Config {
	c := Quick()
	c.Runner.MaxRows = 100_000
	c.Runner.Repetitions = 10
	c.Runner.Warmups = 5
	c.Train.Candidates = []string{"huber", "random_forest", "gbm", "neural_net"}
	c.TPCHScale = 1.0
	c.IntervalUS = 1_000_000
	c.InterferenceThreads = []int{1, 3, 5, 7, 9}
	c.InterferenceRates = []int{1, 2, 4}
	return c
}

// Pipeline holds the trained MB2 state shared by the experiments, plus the
// Table 2 accounting.
type Pipeline struct {
	Cfg    Config
	Repo   *metrics.Repository
	Models *modeling.ModelSet

	RunnerWall      time.Duration
	TrainWall       time.Duration
	RunnerSimUS     float64
	DataBytes       int
	InterfWall      time.Duration
	InterfSamples   int
	InterfDataBytes int
}

// BuildPipeline runs every OU-runner and trains the OU-models.
func BuildPipeline(cfg Config) (*Pipeline, error) {
	cfg.Runner.Jobs = cfg.Jobs
	cfg.Train.Jobs = cfg.Jobs
	p := &Pipeline{Cfg: cfg, Repo: metrics.NewRepository()}
	start := time.Now()
	rep := runner.RunAll(p.Repo, cfg.Runner)
	p.RunnerWall = time.Since(start)
	p.RunnerSimUS = rep.SimulatedUS
	p.DataBytes = p.Repo.SizeBytes()

	start = time.Now()
	ms, err := modeling.TrainModelSet(p.Repo, cfg.Train)
	if err != nil {
		return nil, err
	}
	p.TrainWall = time.Since(start)
	p.Models = ms
	return p, nil
}

// LoadTPCH opens a database with TPC-H loaded at the given scale multiple
// of the pipeline's base scale (1.0 = the paper's "1 GB").
func (p *Pipeline) LoadTPCH(scaleMult float64) (*engine.DB, []runner.QueryTemplate, error) {
	db := engine.Open(catalog.DefaultKnobs())
	if err := (workload.TPCH{}).Load(db, p.Cfg.TPCHScale*scaleMult, p.Cfg.Seed); err != nil {
		return nil, nil, err
	}
	return db, (workload.TPCH{}).Templates(db, p.Cfg.Seed), nil
}

// TrainInterference runs the concurrent runner on a 1x TPC-H database and
// attaches the trained interference model to the model set (Sec 8.4's
// protocol: trained at 1 GB, on the configured thread counts, in
// interpretive mode).
func (p *Pipeline) TrainInterference() error {
	start := time.Now()
	db, templates, err := p.LoadTPCH(1)
	if err != nil {
		return err
	}
	ccfg := runner.DefaultConcurrentConfig()
	ccfg.IntervalUS = p.Cfg.IntervalUS
	ccfg.Mode = catalog.Interpret
	ccfg.Jobs = p.Cfg.Jobs
	tr := modeling.NewTranslator(db, ccfg.Mode)
	samples, err := runner.GenerateInterference(db, p.Models, tr, templates, ccfg,
		p.Cfg.InterferenceThreads, p.Cfg.InterferenceRates)
	if err != nil {
		return err
	}
	p.InterfSamples = len(samples)
	p.InterfDataBytes = len(samples) * (modeling.NumInterferenceFeatures + 9) * 8
	im, err := modeling.TrainInterference(samples, interferenceCandidates(p.Cfg), p.Cfg.Seed, p.Cfg.Jobs)
	if err != nil {
		return err
	}
	p.Models.Interference = im
	p.InterfWall = time.Since(start)
	return nil
}

func interferenceCandidates(cfg Config) []string {
	// Keep the quick config fast; the paper's pick is the neural net.
	for _, c := range cfg.Train.Candidates {
		if c == "neural_net" {
			return []string{"neural_net", "random_forest"}
		}
	}
	return []string{"random_forest"}
}

// sharedQuick caches one quick pipeline per process: the package's tests all
// reuse it, mirroring how MB2 trains once and serves every prediction.
var (
	sharedMu    sync.Mutex
	sharedQuick *Pipeline
)

// QuickPipeline returns the process-wide quick pipeline, building it (and
// its interference model) on first use.
func QuickPipeline() (*Pipeline, error) {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if sharedQuick != nil {
		return sharedQuick, nil
	}
	p, err := BuildPipeline(Quick())
	if err != nil {
		return nil, err
	}
	if err := p.TrainInterference(); err != nil {
		return nil, err
	}
	sharedQuick = p
	return p, nil
}

// fprintf ignores write errors to keep table-printing call sites clean.
func fprintf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format, args...)
	}
}
