//go:build race

package core_test

// raceEnabled: the race detector makes sync.Pool drop items at random, so
// allocation counts do not repeat under it.
const raceEnabled = true
