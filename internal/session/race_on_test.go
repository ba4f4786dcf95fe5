//go:build race

package session

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
