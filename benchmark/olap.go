package main

import (
	"fmt"
	"runtime"
	"time"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/exec"
	"mb2/internal/hw"
	"mb2/internal/server"
	"mb2/internal/session"
	"mb2/internal/storage"
)

// olap_scan: frozen full-size counts.
const (
	olapFactRows    = 30_000 // fact rows; dim has a tenth of that
	olapGroups      = 100    // distinct fact.grp values
	olapRoundCycles = 22     // report cycles per round (16 statements each)
	olapTraceCycles = 10     // cycles of the traced pass
	// olapSetupLoads is how many times one set-up builds the two engines
	// from scratch (create, bulk load, index), keeping the last pair. One
	// build takes 0.025 s, and a sub-second set-up time does not repeat from
	// run to run; the tables cannot grow instead, because a cycle scans them
	// 16 times and a run must pool at least 100 cycles.
	olapSetupLoads = 40
)

var olapScan = &workload{
	name:     "olap_scan",
	why:      "exec does all the work and parse, plan and wire none; the three execution modes and the partitioned path weigh equally, so a gain for one that costs another shows; 30000 rows, 22 cycles/round",
	roundOps: olapRoundCycles,
	sizes:    "fact 30000 rows, dim 3000 rows, two engines (unpartitioned; 4 partitions at DOP 2), built 40 times per set-up; 22 cycles/round of 4 queries x 4 configurations",
	setup:    setupOLAP,
}

// olapConfig is one execution configuration of the report cycle.
type olapConfig struct {
	name  string
	mode  catalog.ExecutionMode
	parts int // 1 = the unpartitioned engine, 4 = the partitioned one (DOP 2)
}

var olapConfigs = []olapConfig{
	{"interpret", catalog.Interpret, 1},
	{"compile", catalog.Compile, 1},
	{"vectorize", catalog.Vectorize, 1},
	{"part4dop2", catalog.Compile, 4},
}

// olapQuery is one query of the report cycle; text is built for a fact
// table of the run's size.
type olapQuery struct {
	name string
	text func(fact int) string
}

// fact.val is a permutation of 0..fact-1, so "val < fact/2" keeps half the
// table and ORDER BY val has no ties for the configurations to break
// differently.
var olapQueries = []olapQuery{
	{"scan", func(fact int) string {
		return fmt.Sprintf("SELECT id, val FROM fact WHERE val < %d", fact/2)
	}},
	{"agg", func(int) string {
		return "SELECT grp, sum(val), count(id) FROM fact GROUP BY grp"
	}},
	{"join", func(fact int) string {
		return fmt.Sprintf("SELECT fact.id, dim.attr FROM dim JOIN fact ON dim.id = fact.dim_id WHERE fact.val < %d", fact/10)
	}},
	{"topn", func(int) string {
		return fmt.Sprintf("SELECT id, val FROM fact WHERE grp < %d ORDER BY val DESC LIMIT 10", olapGroups/10)
	}},
}

type olapBench struct {
	fact        int
	traceCycles int
	dbs         [2]*engine.DB
	sess        [4]*session.Session // one per olapConfigs entry
	text        [4]string           // one per olapQueries entry
	want        [4]server.RowsResult
	haveWant    bool
	corrupt     bool
	h           rowHasher
	cycles      int
	failed      int
	err         error
	lat         []int64
}

func setupOLAP(sc scale, _ uint64, tr *tracer, m map[string]float64) (instance, error) {
	b := &olapBench{fact: sc.rows(olapFactRows, 10*olapGroups), traceCycles: sc.rows(olapTraceCycles, 1), corrupt: sc.corrupt}
	dimRows := b.fact / 10
	fact := make([]storage.Tuple, b.fact)
	for i := range fact {
		id := int64(i)
		fact[i] = storage.Tuple{storage.NewInt(id), storage.NewInt(id % olapGroups),
			storage.NewInt(id % int64(dimRows)), storage.NewInt(id * 7919 % int64(b.fact))}
	}
	dim := make([]storage.Tuple, dimRows)
	for i := range dim {
		dim[i] = storage.Tuple{storage.NewInt(int64(i)), storage.NewInt(int64(i) % 97)}
	}
	ints := func(names ...string) catalog.Schema {
		cols := make([]catalog.Column, len(names))
		for i, n := range names {
			cols[i] = catalog.Column{Name: n, Type: catalog.Int64}
		}
		return catalog.NewSchema(cols...)
	}

	var loadNS, indexNS time.Duration
	for e := 0; e < len(b.dbs)*olapSetupLoads; e++ {
		knobs := catalog.DefaultKnobs()
		if e%len(b.dbs) == 1 {
			knobs.PartitionCount, knobs.ScanDOP, knobs.ExecutionMode = 4, 2, catalog.Compile
		}
		db := engine.Open(knobs)
		b.dbs[e%len(b.dbs)] = db
		if _, err := db.CreateTable("fact", ints("id", "grp", "dim_id", "val")); err != nil {
			return nil, err
		}
		if _, err := db.CreateTable("dim", ints("id", "attr")); err != nil {
			return nil, err
		}
		var err error
		t0 := time.Now()
		tr.do("storage", "DB.BulkLoad", func() {
			if err = db.BulkLoad("fact", fact); err == nil {
				err = db.BulkLoad("dim", dim)
			}
		})
		if err != nil {
			return nil, err
		}
		loadNS += time.Since(t0)
		t0 = time.Now()
		tr.do("index", "DB.CreateIndex", func() {
			if _, _, err = db.CreateIndex(nil, db.Machine.CPU, "fact_pk", "fact", []string{"id"}, true, 1); err == nil {
				_, _, err = db.CreateIndex(nil, db.Machine.CPU, "dim_pk", "dim", []string{"id"}, true, 1)
			}
		})
		if err != nil {
			return nil, err
		}
		indexNS += time.Since(t0)
	}
	m["storage.bulk_load_rows_per_s"] = float64(len(b.dbs)*olapSetupLoads*(b.fact+dimRows)) / loadNS.Seconds()
	m["index.build_ms"] = float64(indexNS) / 1e6 / olapSetupLoads

	// A session captures the execution mode when it is opened, so each
	// configuration's session opens after its knobs are set.
	regs := [2]*session.Registry{session.NewRegistry(b.dbs[0], 0), session.NewRegistry(b.dbs[1], 0)}
	for i, c := range olapConfigs {
		e := 0
		if c.parts > 1 {
			e = 1
		}
		knobs := b.dbs[e].Knobs()
		knobs.ExecutionMode = c.mode
		b.dbs[e].SetKnobs(knobs)
		s, err := regs[e].Open(session.Options{Contenders: 1})
		if err != nil {
			return nil, err
		}
		b.sess[i] = s
	}
	for i, q := range olapQueries {
		b.text[i] = q.text(b.fact)
	}
	// The first cycle fills the planner's statistics caches and the
	// executor's pools, and fixes the reference results; it belongs to
	// set-up.
	tr.do("benchmark", "first cycle", func() { b.cycle(nil, nil, nil, nil) })
	b.failed = 0
	return b, b.err
}

// cycle runs the 16 statements of one report cycle, configuration by
// configuration, checking that every configuration returns the same rows.
// With a tracer it also accumulates per-configuration allocation and the
// simulated time hw charged.
func (b *olapBench) cycle(tr *tracer, alloc, simUS, wallUS *[4]float64) {
	var before, after runtime.MemStats
	for ci, c := range olapConfigs {
		if tr != nil {
			runtime.ReadMemStats(&before)
		}
		for qi, q := range olapQueries {
			var batch *exec.Batch
			var sim hw.Metrics
			var err error
			t0 := time.Now()
			tr.do("exec", "exec."+q.name+"_"+c.name, func() { batch, sim, err = b.sess[ci].ExecSQL(b.text[qi]) })
			if tr != nil {
				simUS[ci] += sim.ElapsedUS
				wallUS[ci] += float64(time.Since(t0)) / 1e3
			}
			got := b.h.batchResult(batch)
			switch {
			case err != nil:
				b.fail(fmt.Errorf("%s on %s: %w", q.name, c.name, err))
			case !b.haveWant && ci == 0:
				b.want[qi] = got
			case got != b.want[qi]:
				b.fail(fmt.Errorf("%s on %s: %d rows digest %#x, %s returned %d rows digest %#x",
					q.name, c.name, got.Count, got.Digest, olapConfigs[0].name, b.want[qi].Count, b.want[qi].Digest))
			}
		}
		if tr != nil {
			runtime.ReadMemStats(&after)
			alloc[ci] += float64(after.TotalAlloc - before.TotalAlloc)
		}
	}
	if b.corrupt && !b.haveWant {
		b.want[0].Digest ^= 1
	}
	b.haveWant = true
}

func (b *olapBench) fail(err error) {
	b.failed++
	if b.err == nil {
		b.err = err
	}
}

func (b *olapBench) round(ops int) (roundResult, error) {
	b.lat = b.lat[:0]
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		failed := b.failed
		c0 := time.Now()
		b.cycle(nil, nil, nil, nil)
		b.lat = append(b.lat, int64(time.Since(c0)))
		b.cycles++
		if b.failed > failed {
			b.failed = failed + 1 // a cycle fails once, however many statements did
		}
	}
	return roundResult{wall: time.Since(t0), units: ops, lat: b.lat}, nil
}

func (b *olapBench) quiesce() error { return nil }

func (b *olapBench) counts() (int, int) { return b.cycles, b.failed }

func (b *olapBench) check() error {
	if b.err != nil {
		return b.err
	}
	// The scan keeps exactly half the table and the top-n exactly ten
	// rows, whatever the configuration.
	if b.want[0].Count != uint64(b.fact/2) || b.want[1].Count != olapGroups || b.want[3].Count != 10 {
		return fmt.Errorf("olap_scan: result sizes scan=%d agg=%d topn=%d, want %d, %d, 10",
			b.want[0].Count, b.want[1].Count, b.want[3].Count, b.fact/2, olapGroups)
	}
	return nil
}

func (b *olapBench) layers(tr *tracer, m map[string]float64) error {
	var alloc, simUS, wallUS [4]float64
	cycles := b.traceCycles
	t0 := time.Now()
	for i := 0; i < cycles; i++ {
		tr.nextOp()
		tr.do("benchmark", "cycle", func() { b.cycle(tr, &alloc, &simUS, &wallUS) })
	}
	traced := float64(time.Since(t0)) / 1e3 / float64(cycles)
	m["trace.overhead_pct"] = 100 * (traced/m["trace.untraced_op_us"] - 1)
	for ci, c := range olapConfigs {
		for _, q := range olapQueries {
			name := "exec." + q.name + "_" + c.name
			m[name+"_us"] = p50us(tr.durations(name))
		}
		m["exec.alloc_bytes_"+c.name] = alloc[ci] / float64(cycles)
		if c.parts == 1 {
			m["hw.sim_over_wall_"+c.name] = simUS[ci] / wallUS[ci]
		}
	}
	if us := m["exec.scan_compile_us"]; us > 0 {
		m["exec.scan_rows_per_s"] = float64(b.fact) / (us / 1e6)
	}
	return b.err
}

func (b *olapBench) close() {
	for _, s := range b.sess {
		if s != nil {
			s.Close()
		}
	}
}
