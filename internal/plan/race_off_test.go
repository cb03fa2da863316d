//go:build !race

package plan

const raceEnabled = false
