//go:build !race

package bandwidth

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
