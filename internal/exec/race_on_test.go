//go:build race

package exec

// raceEnabled: the race detector's instrumentation allocates objects of its
// own, so absolute allocation bounds are looser under it; and sync.Pool drops
// a quarter of its Puts at random under it, so the recycled set's anchor may
// lose the set to a single collection.
const raceEnabled = true
