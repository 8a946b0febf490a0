//go:build race

package bandwidth

// raceEnabled reports whether the race detector is compiled in. Under
// it sync.Pool drops Puts at random, so tests must not require a pool
// hit.
const raceEnabled = true
