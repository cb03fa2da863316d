// Package metrics implements MB2's lightweight data-collection
// infrastructure (Sec 6.1): the resource tracker that brackets OU
// invocations, decentralized thread-local collectors, the aggregator that
// drains them into the training-data repository, and the robust-statistics
// label derivation (20% trimmed mean, Sec 6.2).
package metrics

import (
	"math/rand"
	"slices"
	"sort"
	"sync"

	"mb2/internal/hw"
	"mb2/internal/ou"
)

// Record is one observed OU invocation: its input features and measured
// output labels.
type Record struct {
	Kind     ou.Kind
	Features []float64
	Labels   hw.Metrics
}

// Collector is the thread-local metrics buffer one worker writes to.
//
// # Concurrency contract
//
// Every method is safe for concurrent use; a mutex guards all state. The
// Emit-vs-Drain contract is exactly-once delivery: each record passed to
// Emit appears in the result of exactly one Drain call — never lost,
// never duplicated — because Drain atomically takes the buffer and
// resets it under the same lock Emit appends under. Records from a
// single emitting goroutine appear in emission order within and across
// drains. The intended discipline is still one writer per collector
// (the parallel runner pipeline gives every sweep unit and every
// measurement repetition its own, which also fixes the global record
// order); multiple concurrent writers are memory-safe but interleave in
// an unspecified order.
//
// A record owns its features: Emit copies the caller's vector, which the
// caller may then reuse or keep on its stack.
type Collector struct {
	mu      sync.Mutex
	enabled map[ou.Kind]bool // nil means everything enabled
	all     bool
	records []Record

	// Measurement noise emulates the jitter of real hardware counters so
	// the trimmed-mean machinery has something to be robust against. Zero
	// scale (the default) keeps collection deterministic.
	noiseScale float64
	rng        *rand.Rand
}

// NewCollector returns a collector with tracking enabled for every OU.
func NewCollector() *Collector {
	return &Collector{all: true}
}

// EnableOnly restricts tracking to the given OUs — the paper's mechanism
// for cutting tracker overhead while exercising one component (Sec 6.1).
func (c *Collector) EnableOnly(kinds ...ou.Kind) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.all = false
	c.enabled = make(map[ou.Kind]bool, len(kinds))
	for _, k := range kinds {
		c.enabled[k] = true
	}
}

// SetNoise turns on multiplicative Gaussian measurement noise with the
// given relative scale and deterministic seed.
func (c *Collector) SetNoise(scale float64, seed int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.noiseScale = scale
	c.rng = rand.New(rand.NewSource(seed))
}

// Emit records one OU invocation. Disabled OUs are dropped. The record
// holds its own copy of features, so a caller may build the vector on its
// stack and reuse it: with no collector attached, a tracked invocation
// allocates nothing for its features.
func (c *Collector) Emit(k ou.Kind, features []float64, labels hw.Metrics) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !(c.all || c.enabled[k]) {
		return
	}
	if c.noiseScale > 0 && c.rng != nil {
		// Real counter noise is heavy-tailed and one-sided: small Gaussian
		// jitter most of the time, with occasional large positive spikes
		// from preemptions and kernel tasks (Sec 6.2's motivation for
		// robust statistics).
		jitter := 1 + 0.2*c.noiseScale*c.rng.NormFloat64()
		if jitter < 0 {
			jitter = 0
		}
		spike := 1.0
		if c.rng.Float64() < 0.15*c.noiseScale {
			spike = 1 + 10*c.noiseScale*c.rng.Float64()
		}
		v := labels.Vec()
		for i := range v {
			v[i] *= jitter * spike
		}
		labels = hw.MetricsFromVec(v)
	}
	c.records = append(c.records, Record{Kind: k, Features: slices.Clone(features), Labels: labels})
}

// Drain removes and returns everything collected so far.
func (c *Collector) Drain() []Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.records
	c.records = nil
	return out
}

// Tracker brackets one OU invocation on a thread: Start snapshots the
// counters, Stop derives the labels and emits the record. Each
// Start/Stop pair models one resource-tracker invocation (Sec 6.1).
type Tracker struct {
	collector *Collector
	thread    *hw.Thread
}

// NewTracker binds a collector and a hardware thread.
func NewTracker(c *Collector, th *hw.Thread) *Tracker {
	return &Tracker{collector: c, thread: th}
}

// Thread returns the underlying hardware thread.
func (t *Tracker) Thread() *hw.Thread { return t.thread }

// Collector returns the underlying collector.
func (t *Tracker) Collector() *Collector { return t.collector }

// Start begins tracking one OU invocation. The tracker itself costs a
// little work, as the paper measures (~20us per invocation, Sec 8.1).
func (t *Tracker) Start() hw.Counters {
	if t.thread == nil {
		return hw.Counters{}
	}
	t.thread.Compute(300) // reading counters is not free
	return t.thread.Counters()
}

// Stop finishes tracking and emits the record.
func (t *Tracker) Stop(k ou.Kind, features []float64, start hw.Counters) hw.Metrics {
	var labels hw.Metrics
	if t.thread != nil {
		labels = t.thread.Since(start)
		t.thread.Compute(300)
	}
	if t.collector != nil {
		t.collector.Emit(k, features, labels)
	}
	return labels
}

// Repository is MB2's training-data store: records grouped per OU, fed by
// the aggregator.
type Repository struct {
	mu   sync.Mutex
	data map[ou.Kind][]Record
}

// NewRepository returns an empty repository.
func NewRepository() *Repository {
	return &Repository{data: make(map[ou.Kind][]Record)}
}

// Add inserts records directly (used by runners that pre-derive labels).
func (r *Repository) Add(recs ...Record) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, rec := range recs {
		r.data[rec.Kind] = append(r.data[rec.Kind], rec)
	}
}

// Merge appends every record of other into r, preserving other's per-kind
// record order. Merging per-unit repositories in deterministic unit order
// reproduces, per kind, exactly the record order a serial run would have
// produced — the invariant the parallel runner pipeline relies on, since
// downstream shuffles and splits key off record positions.
func (r *Repository) Merge(other *Repository) {
	if other == nil || other == r {
		return
	}
	other.mu.Lock()
	defer other.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, recs := range other.data {
		r.data[k] = append(r.data[k], recs...)
	}
}

// Records returns the stored records for one OU.
func (r *Repository) Records(k ou.Kind) []Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Record, len(r.data[k]))
	copy(out, r.data[k])
	return out
}

// NumRecords returns the total record count across OUs.
func (r *Repository) NumRecords() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, recs := range r.data {
		n += len(recs)
	}
	return n
}

// Kinds returns the OUs with at least one record.
func (r *Repository) Kinds() []ou.Kind {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ou.Kind, 0, len(r.data))
	for k := range r.data {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SizeBytes estimates the repository's storage footprint (Table 2's data
// size column): features and labels as float64s plus record overhead.
func (r *Repository) SizeBytes() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, recs := range r.data {
		for _, rec := range recs {
			n += 8*(len(rec.Features)+hw.NumLabels) + 16
		}
	}
	return n
}

// TrimmedMean returns the mean of the middle portion of xs after trimming
// the given fraction from each tail: the robust statistic MB2 derives
// labels with (20% trim, breakdown point 0.4; Sec 6.2).
func TrimmedMean(xs []float64, trim float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	k := int(float64(len(sorted)) * trim)
	kept := sorted[k : len(sorted)-k]
	if len(kept) == 0 {
		kept = sorted[len(sorted)/2 : len(sorted)/2+1]
	}
	sum := 0.0
	for _, v := range kept {
		sum += v
	}
	return sum / float64(len(kept))
}

// TrimmedMeanLabels reduces repeated measurements of one OU invocation to a
// single label vector via the per-label trimmed mean.
func TrimmedMeanLabels(ms []hw.Metrics, trim float64) hw.Metrics {
	if len(ms) == 0 {
		return hw.Metrics{}
	}
	var out [hw.NumLabels]float64
	col := make([]float64, len(ms))
	for l := 0; l < hw.NumLabels; l++ {
		for i, m := range ms {
			col[i] = m.Vec()[l]
		}
		out[l] = TrimmedMean(col, trim)
	}
	return hw.MetricsFromVec(out[:])
}
