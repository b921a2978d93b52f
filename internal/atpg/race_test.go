//go:build race

package atpg

// raceEnabled reports whether the race detector is on.
const raceEnabled = true
