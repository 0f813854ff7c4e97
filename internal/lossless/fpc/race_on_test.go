//go:build race

package fpc

// raceEnabled reports that the race detector is on: it makes sync.Pool
// drop items at random, so allocation counts stop being repeatable.
const raceEnabled = true
