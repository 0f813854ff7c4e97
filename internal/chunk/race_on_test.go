//go:build race

package chunk

// raceEnabled reports that the race detector is on.
const raceEnabled = true
