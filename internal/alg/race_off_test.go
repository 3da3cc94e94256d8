//go:build !race

package alg

const raceEnabled = false
