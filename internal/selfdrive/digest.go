package selfdrive

import (
	"mb2/internal/catalog"
	"mb2/internal/fold"
)

// foldInterval folds one interval's observable outcome into the run's
// digest: the per-template counts (names is their sorted key set), the
// observed latency, the execution mode, and the cumulative action log.
func foldInterval(h fold.H, i int, names []string, counts map[string]float64, observed float64, mode catalog.ExecutionMode, actions []AppliedAction) fold.H {
	h = h.U64(uint64(i))
	for _, name := range names {
		h = h.Str(name).F64(counts[name])
	}
	h = h.F64(observed).U64(uint64(mode)).U64(uint64(len(actions)))
	for _, a := range actions {
		h = h.Str(a.Kind).Str(a.Detail)
	}
	return h
}
