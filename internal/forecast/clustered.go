package forecast

import (
	"math"
	"sort"
)

// Recency weighting for fan-out shares. Rather than decaying old
// observations (O(population) per interval), new observations are scaled
// up by a growing factor: a count c recorded at interval i contributes
// c * weightGrowth^i, so relative shares are recency-weighted for free and
// both per-template and per-cluster totals fold in with O(1) work. The
// scale is renormalized (one O(population) pass) only when it approaches
// float64 range — every few thousand intervals.
const (
	weightGrowth   = 1.25
	weightRenormAt = 1e150
)

// NewClusteredHistory creates a windowed history that maintains
// per-CLUSTER series instead of per-template series: Append folds each
// observed template's count into its cluster's bucket in O(1), so the
// store's per-interval cost is O(active templates + K) instead of
// O(template population) — the workload-compression contract. Per-template
// state is limited to a recency-weighted fan-out weight (one float64 per
// template ever observed). maxIntervals <= 0 means unbounded.
//
// Templates are normally registered with the clusterer (plan fingerprint +
// feature vector) before their counts first arrive; names that show up
// unregistered are absorbed via Clusterer.AssignOrphan in sorted-name
// order, keeping assignment deterministic regardless of map iteration.
func NewClusteredHistory(intervalUS float64, maxIntervals int, c *Clusterer) *History {
	h := NewWindowedHistory(intervalUS, maxIntervals)
	h.clusterer = c
	h.weights = make(map[string]float64)
	h.wScale = 1
	return h
}

// Clustered reports whether the history maintains cluster series.
func (h *History) Clustered() bool { return h.clusterer != nil }

// Clusterer returns the attached clusterer (nil for a plain history).
func (h *History) Clusterer() *Clusterer { return h.clusterer }

// appendClustered is Append's clustered path; the caller holds h.mu and
// has already advanced h.intervals.
func (h *History) appendClustered(counts map[string]float64) {
	h.wScale *= weightGrowth
	if h.wScale > weightRenormAt {
		inv := 1 / weightRenormAt
		h.wScale *= inv
		for name := range h.weights {
			h.weights[name] *= inv
		}
		for i := range h.clusterWeight {
			h.clusterWeight[i] *= inv
		}
	}

	// Sorted iteration so orphan assignment (which can found clusters) is
	// independent of map iteration order.
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)

	perCluster := make(map[int]float64, len(names))
	for _, name := range names {
		id, ok := h.clusterer.Lookup(name)
		if !ok {
			id = h.clusterer.AssignOrphan(name)
		}
		v := counts[name]
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			continue
		}
		perCluster[id] += v
		h.weights[name] += v * h.wScale
	}

	// Clusters founded since the last interval start with zero-padded
	// series, so every cluster series spans every retained interval.
	for n := h.clusterer.Len(); len(h.clusterCounts) < n; {
		h.clusterCounts = append(h.clusterCounts, make([]float64, h.intervals-1))
		h.clusterWeight = append(h.clusterWeight, 0)
	}
	for id := range h.clusterCounts {
		v := perCluster[id]
		h.clusterCounts[id] = append(h.clusterCounts[id], v)
		h.clusterWeight[id] += v * h.wScale
	}

	if h.window > 0 && h.intervals > h.window {
		drop := h.intervals - h.window
		for id, series := range h.clusterCounts {
			h.clusterCounts[id] = append([]float64(nil), series[drop:]...)
		}
		h.intervals = h.window
		h.evicted += drop
	}
}

// NumClusters returns how many clusters have at least one retained series.
func (h *History) NumClusters() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.clusterCounts)
}

// ClusterSeries returns a copy of one cluster's per-interval volume series
// (nil for an unknown ID).
func (h *History) ClusterSeries(id int) []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if id < 0 || id >= len(h.clusterCounts) {
		return nil
	}
	return append([]float64(nil), h.clusterCounts[id]...)
}

func (h *History) shareLocked(name string) float64 {
	if h.clusterer == nil {
		return 0
	}
	id, ok := h.clusterer.Lookup(name)
	if !ok || id >= len(h.clusterWeight) {
		return 0
	}
	w, cw := h.weights[name], h.clusterWeight[id]
	if cw <= 0 || w <= 0 {
		return 0
	}
	return w / cw
}

// FanOut distributes per-cluster predictions back to the given member
// templates proportionally to their recency-weighted shares:
// pred(template) = clusterPred[cluster(template)] * Share(template).
// Only the requested names are touched, so MAPE accounting against an
// interval's observed templates costs O(observed), not O(population).
func (h *History) FanOut(clusterPred []float64, names []string) map[string]float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]float64, len(names))
	for _, name := range names {
		p := 0.0
		if id, ok := h.clusterer.Lookup(name); ok && id < len(clusterPred) {
			p = clusterPred[id] * h.shareLocked(name)
			if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
				p = 0
			}
		}
		out[name] = p
	}
	return out
}

// ForecastClusters predicts every cluster's volume for the next horizon
// intervals, indexed by cluster ID. The per-cluster cost matches
// Forecast's per-template cost, so a full forecasting pass is O(K), not
// O(template population).
func (f Forecaster) ForecastClusters(h *History, horizon int) [][]float64 {
	n := h.NumClusters()
	out := make([][]float64, n)
	for id := 0; id < n; id++ {
		out[id] = f.forecastSeries(h.ClusterSeries(id), horizon)
	}
	return out
}
