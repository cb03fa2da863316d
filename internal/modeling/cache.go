package modeling

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"mb2/internal/catalog"
	"mb2/internal/hw"
)

// cacheKey identifies one memoized prediction: the plan fingerprint (0 for
// action entries), the execution-mode knob, and the action signature (""
// for plain query entries). Together with the cache's config-version tag
// this is the (plan fingerprint, mode, action) key of the online loop.
type cacheKey struct {
	Fingerprint uint64
	Mode        catalog.ExecutionMode
	Action      string
}

// cacheEntry holds one memoized isolated prediction.
type cacheEntry struct {
	Total hw.Metrics
	PerOU []hw.Metrics
}

// PredictionCache memoizes isolated OU-model predictions for the online
// inference path. Entries are keyed by (plan fingerprint, execution mode,
// action signature) and tagged with the engine configuration version they
// were computed at: Sync drops every entry when the version moves (a knob
// change or index create/rename/drop can alter both translation features
// and plan choice, so stale entries must not survive).
//
// The cache is size-bounded: beyond MaxEntries live entries the least
// recently used entry is evicted, so a high-cardinality workload (10^5+
// distinct plan fingerprints) cannot grow it without limit between
// ConfigVersion bumps. Eviction only forgets memoized work — predictions
// recompute identically on the next miss — so seeded replay digests are
// unaffected by the bound.
//
// The cache is safe for concurrent readers and writers; hit/miss/eviction
// counters are atomic so the loop can report them without stopping
// inference. Only the isolated (pre-interference) predictions are cached —
// interference adjustment depends on the whole interval's concurrency
// summary and is recomputed per call.
type PredictionCache struct {
	mu      sync.RWMutex
	version uint64
	max     int
	entries map[cacheKey]*list.Element
	lru     *list.List // front = most recently used; values are *lruEntry

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// lruEntry is one cached prediction plus the key that maps to it (so
// eviction from the list tail can delete the map entry).
type lruEntry struct {
	key cacheKey
	val cacheEntry
}

// DefaultCacheEntries is the default MaxEntries bound: generous for every
// realistic template population a single planning interval touches, small
// enough that a million-template trace cannot exhaust memory.
const DefaultCacheEntries = 1 << 16

// NewPredictionCache returns an empty cache bounded at
// DefaultCacheEntries.
func NewPredictionCache() *PredictionCache {
	return NewBoundedPredictionCache(DefaultCacheEntries)
}

// NewBoundedPredictionCache returns an empty cache holding at most max
// entries (max <= 0 disables the bound).
func NewBoundedPredictionCache(max int) *PredictionCache {
	return &PredictionCache{
		max:     max,
		entries: make(map[cacheKey]*list.Element),
		lru:     list.New(),
	}
}

// Sync compares the engine's configuration version against the cache's and
// invalidates every entry on mismatch. Callers invoke it once per
// inference pass (PredictInterval does this automatically for translators
// carrying a cache).
func (c *PredictionCache) Sync(version uint64) {
	if c == nil {
		return
	}
	c.mu.RLock()
	cur := c.version
	c.mu.RUnlock()
	if cur == version {
		return
	}
	c.mu.Lock()
	if c.version != version {
		c.version = version
		c.entries = make(map[cacheKey]*list.Element)
		c.lru.Init()
	}
	c.mu.Unlock()
}

// lookup returns the memoized prediction for the key, counting the probe
// and refreshing the entry's recency.
func (c *PredictionCache) lookup(k cacheKey) (cacheEntry, bool) {
	c.mu.Lock()
	el, ok := c.entries[k]
	var e cacheEntry
	if ok {
		c.lru.MoveToFront(el)
		e = el.Value.(*lruEntry).val
	}
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return e, ok
}

// store memoizes one prediction, evicting the least recently used entry
// when the bound is exceeded.
func (c *PredictionCache) store(k cacheKey, e cacheEntry) {
	c.mu.Lock()
	if el, ok := c.entries[k]; ok {
		el.Value.(*lruEntry).val = e
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		return
	}
	c.entries[k] = c.lru.PushFront(&lruEntry{key: k, val: e})
	evicted := uint64(0)
	for c.max > 0 && len(c.entries) > c.max {
		tail := c.lru.Back()
		if tail == nil {
			break
		}
		c.lru.Remove(tail)
		delete(c.entries, tail.Value.(*lruEntry).key)
		evicted++
	}
	c.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(evicted)
	}
}

// Len returns the number of live entries.
func (c *PredictionCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// Stats returns the cumulative hit and miss counts.
func (c *PredictionCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Evictions returns how many entries the LRU bound has evicted (version
// invalidations are not evictions).
func (c *PredictionCache) Evictions() uint64 {
	return c.evictions.Load()
}

// MaxEntries returns the cache's size bound (0 = unbounded).
func (c *PredictionCache) MaxEntries() int { return c.max }

// HitRate returns hits/(hits+misses), or 0 before any probe.
func (c *PredictionCache) HitRate() float64 {
	h, m := c.Stats()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// ActionSignature renders an index-build action as a stable cache-key
// component.
func (a IndexBuildAction) ActionSignature() string {
	return fmt.Sprintf("idx:%s:%v:t%d", a.Table, a.KeyCols, a.Threads)
}
