package selfdrive

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/plan"
	"mb2/internal/workload"
)

// compressedConfig is the shared exploded+compressed drive configuration the
// determinism tests replay.
func compressedConfig() Config {
	cfg := DefaultConfig()
	cfg.Intervals = 6
	cfg.Templates = 64
	cfg.Clusters = 8
	cfg.LoadCurve = LoadDiurnal
	cfg.SkewShiftAt = 3
	return cfg
}

// TestDriveLoopPinnedDigests pins one seeded run per arm of the loop: the
// plain drive, the partitioned one (at DOP 1 and 2) and every workload
// shape (exploded, compressed, each load curve). The digest fingerprints
// counts, observed latencies, modes and actions; the two MAPEs (as float
// bits) also pin the forecast's entry order and float reduction order,
// which the digest only sees once they move an action. If a constant
// moves, behavior changed — that is a regression, not a test to update.
func TestDriveLoopPinnedDigests(t *testing.T) {
	ms := sharedModels(t)
	six := func(set func(*Config)) Config {
		cfg := DefaultConfig()
		cfg.Intervals = 6
		set(&cfg)
		return cfg
	}
	cases := []struct {
		name                  string
		cfg                   Config
		digest, mape, volMAPE uint64
	}{
		{"default", DefaultConfig(), 0xb52d5068f447d5a2, 0x3fe22a3490fe7c36, 0x3fc9e85269799e84},
		{"partitions4", func() Config { c := DefaultConfig(); c.Partitions = 4; return c }(), 0xe2cbeb21cd10d0ee, 0x3fe05191ff564967, 0x3fc9e85269799e84},
		{"compressed", compressedConfig(), 0x283877d9ae1bb61, 0x403fbb39533d8a55, 0x3fdec873ba0a9712},
		{"exploded", six(func(c *Config) { c.Templates = 32 }), 0x55d340a5bfd6004e, 0x3fe2d8dc0ee53eac, 0x3fe7ec04fec04fec},
		{"diurnal", six(func(c *Config) { c.LoadCurve = LoadDiurnal }), 0x56363f4816590d69, 0x403d05cfbae7e78f, 0x3fe70e70e70e70e7},
		{"flash", six(func(c *Config) { c.LoadCurve = LoadFlash }), 0xa777b0cc3d233e8, 0x3fe1d1da2978054a, 0x3ff0200000000000},
		// MAPE re-pinned once by PR 23 (…6d26 → …6d6f, 73 ulp): interpreted-mode join and partition-probe labels are now bulk-billed.
		{"partitions4-dop2", six(func(c *Config) { c.Partitions, c.DOP = 4, 2 }), 0x6d25440bf09e674, 0x3fcf1759de266d6f, 0x3fcc000000000000},
	}
	for _, tc := range cases {
		res, err := Run(tc.cfg, ms)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := [3]uint64{res.Digest, math.Float64bits(res.MAPE), math.Float64bits(res.VolumeMAPE)}
		if want := [3]uint64{tc.digest, tc.mape, tc.volMAPE}; got != want {
			t.Errorf("%s: digest, MAPE bits, volume-MAPE bits = %#x, want %#x", tc.name, got, want)
		}
	}
}

// TestDriveLoopCompressedDeterministicReplay runs the exploded, compressed
// drive twice and demands bit-for-bit identical behavior: digests, action
// logs, interval reports, and the cluster census.
func TestDriveLoopCompressedDeterministicReplay(t *testing.T) {
	ms := sharedModels(t)
	cfg := compressedConfig()

	a, err := Run(cfg, ms)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, ms)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Fatalf("compressed replay digest %#x != %#x", b.Digest, a.Digest)
	}
	if !reflect.DeepEqual(a.Actions, b.Actions) {
		t.Fatalf("compressed replay action logs differ:\n%v\n%v", a.Actions, b.Actions)
	}
	if !reflect.DeepEqual(stripWall(a.Intervals), stripWall(b.Intervals)) {
		t.Fatal("compressed replay interval reports differ")
	}
	if a.TemplatesSeen != b.TemplatesSeen || a.Clusters != b.Clusters {
		t.Fatalf("cluster census differs: (%d,%d) vs (%d,%d)",
			a.TemplatesSeen, a.Clusters, b.TemplatesSeen, b.Clusters)
	}

	if a.TemplatesSeen <= len(scenarioBases) {
		t.Fatalf("TemplatesSeen = %d, want an exploded population", a.TemplatesSeen)
	}
	if a.Clusters < 1 || a.Clusters > cfg.Clusters {
		t.Fatalf("Clusters = %d, want within (0,%d]", a.Clusters, cfg.Clusters)
	}
	if a.VolumeMAPE <= 0 {
		t.Fatalf("VolumeMAPE = %v, want > 0 (fan-out accounting engaged)", a.VolumeMAPE)
	}
}

// TestDriveLoopCompressedJobsInvariance pins that cluster assignment and the
// whole compressed drive are independent of the session worker-pool size:
// serial and parallel replays of the same seed agree exactly.
func TestDriveLoopCompressedJobsInvariance(t *testing.T) {
	ms := sharedModels(t)

	var digests []uint64
	var censuses [][2]int
	for _, jobs := range []int{1, 4} {
		cfg := compressedConfig()
		cfg.Jobs = jobs
		res, err := Run(cfg, ms)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		digests = append(digests, res.Digest)
		censuses = append(censuses, [2]int{res.TemplatesSeen, res.Clusters})
	}
	if digests[0] != digests[1] {
		t.Fatalf("digest differs across jobs: %#x vs %#x", digests[0], digests[1])
	}
	if censuses[0] != censuses[1] {
		t.Fatalf("cluster census differs across jobs: %v vs %v", censuses[0], censuses[1])
	}
}

// TestDriveLoopExplodedUncompressed runs the exploded population WITHOUT
// compression: the loop must still work (per-template forecasting over the
// variant population) and report the population size.
func TestDriveLoopExplodedUncompressed(t *testing.T) {
	ms := sharedModels(t)
	cfg := DefaultConfig()
	cfg.Intervals = 4
	cfg.Templates = 32

	a, err := Run(cfg, ms)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, ms)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Fatalf("exploded uncompressed replay digest %#x != %#x", b.Digest, a.Digest)
	}
	if a.Clusters != 0 {
		t.Fatalf("Clusters = %d with compression off, want 0", a.Clusters)
	}
	if a.TemplatesSeen <= len(scenarioBases) {
		t.Fatalf("TemplatesSeen = %d, want > %d", a.TemplatesSeen, len(scenarioBases))
	}
}

// TestDriveLoopLoadCurves replays each load curve twice: the curves must be
// deterministic, diurnal/flash runs must diverge from the flat run (i.e.,
// the curve actually modulates volume), and an unknown curve is rejected.
func TestDriveLoopLoadCurves(t *testing.T) {
	ms := sharedModels(t)
	run := func(curve string) *Result {
		cfg := DefaultConfig()
		cfg.Intervals = 5
		cfg.LoadCurve = curve
		res, err := Run(cfg, ms)
		if err != nil {
			t.Fatalf("curve %q: %v", curve, err)
		}
		return res
	}
	digests := map[string]uint64{}
	for _, curve := range []string{LoadFlat, LoadDiurnal, LoadFlash} {
		a, b := run(curve), run(curve)
		if a.Digest != b.Digest {
			t.Fatalf("curve %q not replayable: %#x vs %#x", curve, a.Digest, b.Digest)
		}
		digests[curve] = a.Digest
	}
	if digests[LoadDiurnal] == digests[LoadFlat] {
		t.Fatal("diurnal curve produced the flat digest — curve had no effect")
	}
	if digests[LoadFlash] == digests[LoadFlat] {
		t.Fatal("flash curve produced the flat digest — curve had no effect")
	}

	// An unknown curve is an error naming the accepted values, not a silent
	// flat run.
	bogus := DefaultConfig()
	bogus.LoadCurve = "bogus"
	if _, err := Run(bogus, ms); err == nil {
		t.Fatal("LoadCurve \"bogus\" ran without error")
	} else {
		for _, want := range []string{"bogus", LoadFlat, LoadDiurnal, LoadFlash} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("unknown-curve error %q does not name %q", err, want)
			}
		}
	}

	// Flash volume spike is visible in the interval reports.
	res := run(LoadFlash)
	mid := res.Intervals[len(res.Intervals)/2]
	if mid.Queries <= res.Intervals[0].Queries {
		t.Fatalf("flash interval ran %d queries vs baseline %d, want a spike",
			mid.Queries, res.Intervals[0].Queries)
	}
}

// TestDriveLoopCacheEvictionsSurfaced bounds the prediction cache far below
// the fingerprint population and checks the loop reports the resulting
// evictions (and that eviction pressure does not change the digest).
func TestDriveLoopCacheEvictionsSurfaced(t *testing.T) {
	ms := sharedModels(t)
	cfg := DefaultConfig()
	cfg.Intervals = 4
	cfg.Templates = 48
	cfg.CacheEntries = 8

	a, err := Run(cfg, ms)
	if err != nil {
		t.Fatal(err)
	}
	if a.CacheEvictions == 0 {
		t.Fatal("CacheEvictions = 0 with an 8-entry cache over 48 templates")
	}

	roomy := cfg
	roomy.CacheEntries = 0 // default bound, far above this population
	b, err := Run(roomy, ms)
	if err != nil {
		t.Fatal(err)
	}
	if b.CacheEvictions != 0 {
		t.Fatalf("default-bound cache evicted %d entries", b.CacheEvictions)
	}
	if a.Digest != b.Digest {
		t.Fatalf("cache bound changed the digest: %#x vs %#x", a.Digest, b.Digest)
	}
}

// TestCompressionBoundsPlannerInput feeds three intervals of counts for a
// 200-variant population through history, registration and the forecast
// builder: uncompressed, the forecast handed to PlanActions carries one
// entry per template; compressed to K clusters it carries at most K.
func TestCompressionBoundsPlannerInput(t *testing.T) {
	const n, k = 200, 8
	cfg := DefaultConfig()
	cfg.Templates = n
	db := engine.Open(catalog.DefaultKnobs())
	bench := workload.TPCC{CustomersPerDistrict: cfg.CustomersPerDistrict}
	if err := bench.Load(db, 1, cfg.Seed); err != nil {
		t.Fatal(err)
	}
	for _, clusters := range []int{0, k} {
		cfg.Clusters = clusters
		sc, err := newScenario(cfg)
		if err != nil {
			t.Fatal(err)
		}
		hist := newHistory(cfg.IntervalUS, cfg.HistoryWindow, cfg.Clusters)
		for i := 0; i < 3; i++ {
			counts := make(map[string]float64, n)
			for b, base := range scenarioBases {
				for ord := 0; ord < sc.variantsPerBase(b); ord++ {
					counts[variantName(base, ord)] = float64(1 + i + ord%5)
				}
			}
			if len(counts) != n {
				t.Fatalf("population = %d, want %d", len(counts), n)
			}
			registerTemplates(hist.Clusterer(), db, counts, sc.repFor)
			hist.Append(counts)
		}
		f := predictVolumes(hist, cfg.HistoryWindow).forecast(cfg.IntervalUS, cfg.Sessions,
			func(name string) plan.Node { return sc.repFor(name, nil) })
		got := len(f.Queries)
		if clusters == 0 && got != n {
			t.Errorf("uncompressed forecast has %d queries, want one per template (%d)", got, n)
		}
		if clusters > 0 && (got < 1 || got > k) {
			t.Errorf("compressed forecast has %d queries, want within [1,%d]", got, k)
		}
	}
}
