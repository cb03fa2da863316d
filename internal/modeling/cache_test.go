package modeling

import (
	"sync"
	"testing"

	"mb2/internal/catalog"
	"mb2/internal/hw"
	"mb2/internal/plan"
)

// cachedForecast builds a two-template fingerprinted forecast against db.
func cachedForecast() IntervalForecast {
	scan := &plan.SeqScanNode{Table: "items", Rows: plan.Estimates{Rows: 200}}
	filtered := &plan.SeqScanNode{
		Table:  "items",
		Filter: plan.Cmp{Op: plan.EQ, L: plan.Col(1), R: plan.IntConst(3)},
		Rows:   plan.Estimates{Rows: 20},
	}
	return IntervalForecast{
		Queries: []ForecastQuery{
			{Plan: scan, Count: 10, Fingerprint: plan.Fingerprint(scan)},
			{Plan: filtered, Count: 5, Fingerprint: plan.Fingerprint(filtered)},
		},
		IntervalUS: 1e6,
		Threads:    2,
	}
}

func TestPredictionCacheHitsAndStats(t *testing.T) {
	db := newTestDB(t, 200, 10)
	ms := constantModelSet(t, hw.Metrics{ElapsedUS: 10, CPUTimeUS: 9})
	tr := NewTranslator(db, catalog.Interpret)
	tr.Cache = NewPredictionCache()
	f := cachedForecast()

	first, err := ms.PredictInterval(tr, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h, m := tr.Cache.Stats(); h != 0 || m != 2 {
		t.Fatalf("after cold pass hits=%d misses=%d, want 0/2", h, m)
	}
	second, err := ms.PredictInterval(tr, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h, m := tr.Cache.Stats(); h != 2 || m != 2 {
		t.Fatalf("after warm pass hits=%d misses=%d, want 2/2", h, m)
	}
	if tr.Cache.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", tr.Cache.HitRate())
	}
	for i := range first.Queries {
		if first.Queries[i].Isolated != second.Queries[i].Isolated {
			t.Fatalf("query %d cached prediction diverged: %+v vs %+v",
				i, first.Queries[i].Isolated, second.Queries[i].Isolated)
		}
	}
}

func TestPredictionCacheKeyedByMode(t *testing.T) {
	db := newTestDB(t, 100, 10)
	ms := constantModelSet(t, hw.Metrics{ElapsedUS: 10})
	cache := NewPredictionCache()
	trI := NewTranslator(db, catalog.Interpret)
	trC := NewTranslator(db, catalog.Compile)
	trI.Cache, trC.Cache = cache, cache
	f := cachedForecast()

	if _, err := ms.PredictInterval(trI, f, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ms.PredictInterval(trC, f, nil); err != nil {
		t.Fatal(err)
	}
	// Same fingerprints, different modes: four distinct entries, no hits.
	if h, m := cache.Stats(); h != 0 || m != 4 {
		t.Fatalf("hits=%d misses=%d, want 0/4", h, m)
	}
	if cache.Len() != 4 {
		t.Fatalf("entries = %d, want 4", cache.Len())
	}
}

func TestPredictionCacheInvalidatedByConfigChange(t *testing.T) {
	db := newTestDB(t, 200, 10)
	ms := constantModelSet(t, hw.Metrics{ElapsedUS: 10})
	tr := NewTranslator(db, catalog.Interpret)
	tr.Cache = NewPredictionCache()
	f := cachedForecast()

	if _, err := ms.PredictInterval(tr, f, nil); err != nil {
		t.Fatal(err)
	}
	if tr.Cache.Len() != 2 {
		t.Fatalf("entries = %d, want 2", tr.Cache.Len())
	}

	// A knob change bumps the config version; the next pass must re-derive
	// every entry instead of hitting stale ones.
	before := db.ConfigVersion()
	db.SetKnobs(db.Knobs())
	if db.ConfigVersion() == before {
		t.Fatal("SetKnobs did not bump the config version")
	}
	if _, err := ms.PredictInterval(tr, f, nil); err != nil {
		t.Fatal(err)
	}
	if h, m := tr.Cache.Stats(); h != 0 || m != 4 {
		t.Fatalf("hits=%d misses=%d after invalidation, want 0/4", h, m)
	}

	// An index build invalidates too.
	if _, _, err := db.CreateIndex(nil, hw.DefaultCPU(), "items_grp", "items", []string{"grp"}, false, 1); err != nil {
		t.Fatal(err)
	}
	if db.ConfigVersion() == before+1 {
		t.Fatal("CreateIndex did not bump the config version")
	}
	tr.Cache.Sync(db.ConfigVersion())
	if tr.Cache.Len() != 0 {
		t.Fatalf("entries = %d after index build, want 0", tr.Cache.Len())
	}
}

func TestPredictionCacheActionEntry(t *testing.T) {
	db := newTestDB(t, 200, 10)
	ms := constantModelSet(t, hw.Metrics{ElapsedUS: 10, CPUTimeUS: 9})
	tr := NewTranslator(db, catalog.Interpret)
	tr.Cache = NewPredictionCache()
	f := cachedForecast()
	action := &ActionForecast{IndexBuild: &IndexBuildAction{
		Table: "items", KeyCols: []string{"grp"}, Threads: 4,
	}}

	first, err := ms.PredictInterval(tr, f, action)
	if err != nil {
		t.Fatal(err)
	}
	second, err := ms.PredictInterval(tr, f, action)
	if err != nil {
		t.Fatal(err)
	}
	// 2 query entries + 1 action entry; warm pass hits all three.
	if h, m := tr.Cache.Stats(); h != 3 || m != 3 {
		t.Fatalf("hits=%d misses=%d, want 3/3", h, m)
	}
	if len(second.ActionPerThread) != len(first.ActionPerThread) {
		t.Fatalf("action threads %d vs %d", len(second.ActionPerThread), len(first.ActionPerThread))
	}
	for i := range first.ActionPerThread {
		if first.ActionPerThread[i] != second.ActionPerThread[i] {
			t.Fatalf("action thread %d diverged", i)
		}
	}
}

func TestPredictionCacheConcurrentInference(t *testing.T) {
	db := newTestDB(t, 200, 10)
	ms := constantModelSet(t, hw.Metrics{ElapsedUS: 10, CPUTimeUS: 9})
	cache := NewPredictionCache()
	f := cachedForecast()
	action := &ActionForecast{IndexBuild: &IndexBuildAction{
		Table: "items", KeyCols: []string{"grp"}, Threads: 2,
	}}

	const goroutines, rounds = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tr := NewTranslator(db, catalog.Interpret)
			tr.Cache = cache
			for r := 0; r < rounds; r++ {
				if _, err := ms.PredictInterval(tr, f, action); err != nil {
					errs <- err
					return
				}
				if g == 0 && r%5 == 0 {
					// One goroutine keeps changing the configuration
					// underneath the others.
					db.SetKnobs(db.Knobs())
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if h, m := cache.Stats(); h+m == 0 {
		t.Fatal("cache never probed")
	}
}

func TestPredictionCacheLRUBound(t *testing.T) {
	c := NewBoundedPredictionCache(3)
	key := func(i int) cacheKey { return cacheKey{Fingerprint: uint64(i + 1), Mode: catalog.Interpret} }
	for i := 0; i < 5; i++ {
		c.store(key(i), cacheEntry{Total: hw.Metrics{ElapsedUS: float64(i)}})
	}
	if c.Len() != 3 {
		t.Fatalf("Len() = %d, want bound 3", c.Len())
	}
	if c.Evictions() != 2 {
		t.Fatalf("Evictions() = %d, want 2", c.Evictions())
	}
	// The two oldest entries are gone, the three newest survive.
	for i := 0; i < 2; i++ {
		if _, ok := c.lookup(key(i)); ok {
			t.Fatalf("entry %d survived past the bound", i)
		}
	}
	for i := 2; i < 5; i++ {
		if e, ok := c.lookup(key(i)); !ok || e.Total.ElapsedUS != float64(i) {
			t.Fatalf("entry %d evicted or corrupted (%v, %v)", i, e, ok)
		}
	}
}

func TestPredictionCacheLRURecency(t *testing.T) {
	c := NewBoundedPredictionCache(2)
	key := func(i int) cacheKey { return cacheKey{Fingerprint: uint64(i + 1)} }
	c.store(key(0), cacheEntry{})
	c.store(key(1), cacheEntry{})
	// Touch 0 so 1 becomes the LRU victim when 2 arrives.
	if _, ok := c.lookup(key(0)); !ok {
		t.Fatal("entry 0 missing before eviction")
	}
	c.store(key(2), cacheEntry{})
	if _, ok := c.lookup(key(0)); !ok {
		t.Fatal("recently used entry 0 was evicted")
	}
	if _, ok := c.lookup(key(1)); ok {
		t.Fatal("least recently used entry 1 survived")
	}
}

func TestPredictionCacheStoreExistingRefreshes(t *testing.T) {
	c := NewBoundedPredictionCache(2)
	key := func(i int) cacheKey { return cacheKey{Fingerprint: uint64(i + 1)} }
	c.store(key(0), cacheEntry{Total: hw.Metrics{ElapsedUS: 1}})
	c.store(key(1), cacheEntry{})
	// Re-storing 0 refreshes both its value and its recency.
	c.store(key(0), cacheEntry{Total: hw.Metrics{ElapsedUS: 9}})
	c.store(key(2), cacheEntry{})
	if e, ok := c.lookup(key(0)); !ok || e.Total.ElapsedUS != 9 {
		t.Fatalf("refreshed entry = (%v, %v), want ElapsedUS 9", e, ok)
	}
	if c.Len() != 2 || c.Evictions() != 1 {
		t.Fatalf("Len, Evictions = %d, %d, want 2, 1", c.Len(), c.Evictions())
	}
}

func TestPredictionCacheUnbounded(t *testing.T) {
	c := NewBoundedPredictionCache(0)
	for i := 0; i < 1000; i++ {
		c.store(cacheKey{Fingerprint: uint64(i + 1)}, cacheEntry{})
	}
	if c.Len() != 1000 || c.Evictions() != 0 {
		t.Fatalf("unbounded cache: Len %d, Evictions %d, want 1000, 0", c.Len(), c.Evictions())
	}
	if NewPredictionCache().max != DefaultCacheEntries {
		t.Fatalf("default bound = %d, want %d", NewPredictionCache().max, DefaultCacheEntries)
	}
}

func TestPredictionCacheSyncResetsLRU(t *testing.T) {
	c := NewBoundedPredictionCache(2)
	c.store(cacheKey{Fingerprint: 1}, cacheEntry{})
	c.store(cacheKey{Fingerprint: 2}, cacheEntry{})
	c.Sync(7) // version moves → full invalidation, not eviction
	if c.Len() != 0 {
		t.Fatalf("Len() after Sync = %d, want 0", c.Len())
	}
	if c.Evictions() != 0 {
		t.Fatalf("Sync counted as eviction: %d", c.Evictions())
	}
	// The list was reset along with the map: filling past the bound still
	// evicts correctly (a stale list would panic or evict wrongly).
	for i := 0; i < 4; i++ {
		c.store(cacheKey{Fingerprint: uint64(10 + i)}, cacheEntry{})
	}
	if c.Len() != 2 || c.Evictions() != 2 {
		t.Fatalf("post-Sync Len, Evictions = %d, %d, want 2, 2", c.Len(), c.Evictions())
	}
}
