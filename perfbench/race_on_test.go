//go:build race

package main

// raceEnabled: the race detector's runtime allocates on its own, so
// allocation counts do not repeat under it.
const raceEnabled = true
