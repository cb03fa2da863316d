//go:build race

package plan

// raceEnabled: under the race detector sync.Pool drops a quarter of its Puts
// at random, so fmt's pooled printers show up in allocation counts.
const raceEnabled = true
