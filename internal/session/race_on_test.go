//go:build race

package session

// raceEnabled: under the race detector sync.Pool drops a quarter of its Puts
// at random, so a pooled buffer's regrowth shows up in allocation counts.
const raceEnabled = true
