//go:build race

package alg

// raceEnabled: the race detector makes sync.Pool drop items at random, so
// allocation counts do not repeat under it.
const raceEnabled = true
