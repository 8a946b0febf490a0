//kernvet:path repro/internal/coord

// Package bitexact exercises the bitexact analyzer: inside annotated
// functions, map ranges, completion-order collection, wall-clock and
// rand calls, and float == are flagged; indexed collection,
// Float64bits comparison, unannotated functions, and suppressed sites
// are not.
package bitexact

import (
	"math"
	"math/rand"
	"time"
)

type resp struct {
	idx int
	cv  float64
}

// mergeByIndex collects shard results into their own slots: the
// deterministic shape, clean.
//
//kernvet:bitexact
func mergeByIndex(ch chan resp, n int) []float64 {
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		o := <-ch
		out[o.idx] = o.cv
	}
	return out
}

// mergeByCompletion appends whatever finishes first: flagged.
//
//kernvet:bitexact
func mergeByCompletion(ch chan resp, n int) []float64 {
	var out []float64
	for i := 0; i < n; i++ {
		o := <-ch
		out = append(out, o.cv) // want `goroutine completion order`
	}
	return out
}

// rangeOverMap folds map values in randomised iteration order: flagged.
//
//kernvet:bitexact
func rangeOverMap(m map[int]float64) float64 {
	var s float64
	for _, v := range m { // want `ranges over a map`
		s = s + v
	}
	return s
}

// rangeOverSlice is ordered iteration: clean.
//
//kernvet:bitexact
func rangeOverSlice(vs []float64) float64 {
	var s float64
	for _, v := range vs {
		s = s + v
	}
	return s
}

// timestamped lets the wall clock into a result: flagged.
//
//kernvet:bitexact
func timestamped() float64 {
	t := time.Now() // want `calls time.Now`
	return float64(t.Unix())
}

// jittered lets randomness into a result: flagged.
//
//kernvet:bitexact
func jittered() float64 {
	return rand.Float64() // want `calls rand.Float64`
}

// floatEq compares floats with ==: flagged (the repo contract is bit
// equality, where -0 != +0 and NaN payloads are distinct).
//
//kernvet:bitexact
func floatEq(a, b float64) bool {
	return a == b // want `compares floats with ==`
}

// bitsEqual compares the IEEE-754 bit patterns: clean.
//
//kernvet:bitexact
func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// unannotated carries no directive, so the analyzer leaves its map
// range and clock call alone: the true-negative case.
func unannotated(m map[int]float64) time.Time {
	for range m {
		break
	}
	return time.Now()
}

// suppressedClock keeps latency bookkeeping beside annotated code with
// an explicit justification.
//
//kernvet:bitexact
func suppressedClock() time.Duration {
	start := time.Now()    //kernvet:ignore bitexact -- testdata: wall clock feeds metrics, not the result
	d := time.Since(start) //kernvet:ignore bitexact -- testdata: wall clock feeds metrics, not the result
	return d
}
