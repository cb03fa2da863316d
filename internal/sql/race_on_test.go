//go:build race

package sql

// raceEnabled: the race detector's instrumentation and sync.Pool's random
// drops under it move allocation counts, which are pinned outside race
// builds only.
const raceEnabled = true
