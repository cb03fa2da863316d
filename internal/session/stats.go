package session

import (
	"sort"
	"sync"

	"mb2/internal/hw"
	"mb2/internal/plan"
)

// Stats is one session's private observation buffer. It implements
// exec.QueryObserver: the execution engine emits one event per completed
// query, and the control plane drains the accumulated view per interval.
//
// The buffer is mutex-guarded because drains (and the kill path) may race
// the session's worker. The Emit-vs-Drain contract is exactly-once: each
// observed query is reflected in the result of exactly one Drain call —
// never lost, never duplicated — because Drain atomically takes the maps
// and resets them under the same lock ObserveQuery updates under.
type Stats struct {
	mu     sync.Mutex
	counts map[string]float64
	iso    map[string]hw.Metrics
	reps   map[string]plan.Node
	load   hw.Metrics // every observed query's isolated metrics, summed
}

// NewStats returns an empty observation buffer.
func NewStats() *Stats {
	return &Stats{
		counts: make(map[string]float64),
		iso:    make(map[string]hw.Metrics),
		reps:   make(map[string]plan.Node),
	}
}

// ObserveQuery implements exec.QueryObserver: one completed query's
// template count and isolated resource usage.
func (s *Stats) ObserveQuery(template string, _ uint64, iso hw.Metrics) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counts[template]++
	m := s.iso[template]
	m.Add(iso)
	s.iso[template] = m
	s.load.Add(iso)
}

// observeRep records a representative plan for a template (first one
// wins): the canonical plan forecast-driven inference predicts with when
// the control loop runs off live traffic it did not itself construct.
func (s *Stats) observeRep(template string, node plan.Node) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.reps[template]; !ok {
		s.reps[template] = node
	}
}

// Queries returns the number of observed (completed) queries.
func (s *Stats) Queries() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0.0
	for _, c := range s.counts {
		total += c
	}
	return total
}

// Drain removes and returns everything observed so far.
func (s *Stats) Drain() Observation {
	s.mu.Lock()
	defer s.mu.Unlock()
	obs := Observation{Counts: s.counts, Iso: s.iso, Reps: s.reps, Load: []hw.Metrics{s.load}}
	s.counts = make(map[string]float64)
	s.iso = make(map[string]hw.Metrics)
	s.reps = make(map[string]plan.Node)
	s.load = hw.Metrics{}
	return obs
}

// Observation is the merged live view of executed traffic: per-template
// arrival counts, summed isolated resource metrics, and one
// representative plan per template — the stream the forecaster and the
// predicted-vs-observed accounting consume.
type Observation struct {
	Counts map[string]float64
	Iso    map[string]hw.Metrics
	Reps   map[string]plan.Node
	// Load is each drained session's isolated metrics summed over its
	// queries, one entry per session (zero for one that ran nothing) in
	// ascending session-ID order: the per-thread demand the control loop
	// charges whole-machine contention over.
	Load []hw.Metrics
}

// NewObservation returns an empty observation.
func NewObservation() Observation {
	return Observation{
		Counts: make(map[string]float64),
		Iso:    make(map[string]hw.Metrics),
		Reps:   make(map[string]plan.Node),
	}
}

// Merge folds another observation into o. Callers merge sessions in
// ascending session-ID order: each template's count and metric sums then
// accumulate session by session, and Load lists the sessions in that
// order, so the result is independent of how the sessions were scheduled —
// the serial-order reduction behind the bit-for-bit replay digests.
func (o *Observation) Merge(other Observation) {
	o.Load = append(o.Load, other.Load...)
	for name, c := range other.Counts {
		o.Counts[name] += c
	}
	for name, m := range other.Iso {
		t := o.Iso[name]
		t.Add(m)
		o.Iso[name] = t
	}
	for name, n := range other.Reps {
		if _, ok := o.Reps[name]; !ok && n != nil {
			o.Reps[name] = n
		}
	}
}

// Templates returns the observation's template names, sorted.
func (o Observation) Templates() []string {
	out := make([]string, 0, len(o.Counts))
	for name := range o.Counts {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
