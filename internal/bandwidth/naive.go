package bandwidth

import (
	"context"
	"fmt"
	"math"

	"repro/internal/kernel"
)

// CVScore evaluates the leave-one-out cross-validation objective (paper
// eq. 1) for a single bandwidth h with an arbitrary kernel, in O(n²).
// Observations whose leave-one-out denominator is zero are excluded via
// the M(X_i) indicator; the sum is still divided by n, exactly as in the
// paper. A non-positive h returns +Inf so optimisers treat it as
// infeasible rather than crashing.
func CVScore(x, y []float64, h float64, k kernel.Kind) float64 {
	s, _ := cvScoreContext(context.Background(), x, y, h, k)
	return s
}

// cvScoreContext is CVScore with a cancellation poll per observation —
// each observation costs an O(n) inner loop, so a cancelled caller is
// noticed within one row's work. The check only early-exits; a completed
// evaluation is arithmetically identical to CVScore.
//
//kernvet:ignore compsum -- the conformance oracle itself: every selector is differentially tested against these exact plain sums, so they must not change
func cvScoreContext(ctx context.Context, x, y []float64, h float64, k kernel.Kind) (float64, error) {
	if !(h > 0) {
		return math.Inf(1), nil
	}
	n := len(x)
	var total float64
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		var num, den float64
		xi := x[i]
		for l := 0; l < n; l++ {
			if l == i {
				continue
			}
			w := k.Weight((xi - x[l]) / h)
			num += y[l] * w
			den += w
		}
		if den > 0 {
			d := y[i] - num/den
			total += d * d
		}
	}
	return total / float64(n), nil
}

// NaiveGridSearchContext evaluates CVScore independently for every grid
// bandwidth — the O(k·n²) algorithm the paper's sorted approach
// replaces — and returns the arg-min. It works with any kernel, which is
// why it also serves as the reference implementation in agreement
// tests. ctx is polled once per observation of each grid point's O(n)
// row, so a cancelled caller is noticed within one row's work;
// cancellation returns ctx.Err() and a zero Result, never a partial
// selection.
func NaiveGridSearchContext(ctx context.Context, x, y []float64, g Grid, k kernel.Kind) (Result, error) {
	if err := validateSample(x, y); err != nil {
		return Result{}, err
	}
	if err := g.Validate(); err != nil {
		return Result{}, err
	}
	scores := make([]float64, g.Len())
	for j, h := range g.H {
		s, err := cvScoreContext(ctx, x, y, h, k)
		if err != nil {
			return Result{}, err
		}
		scores[j] = s
	}
	return Best(g, scores), nil
}

// Best selects the lowest-score bandwidth, ties resolving to the
// lowest index (smallest h), the same convention the device arg-min
// reduction uses. Non-finite scores never win unless every score is
// non-finite. Every distributed selection path reduces to this
// function, so it is under the bit-determinism contract.
//
//kernvet:bitexact
func Best(g Grid, scores []float64) Result {
	best := -1
	bv := math.Inf(1)
	for j, s := range scores {
		if !math.IsNaN(s) && s < bv {
			best, bv = j, s
		}
	}
	if best < 0 { // all scores NaN/Inf: report the first deterministically
		best, bv = 0, scores[0]
	}
	return Result{H: g.H[best], CV: bv, Index: best, Scores: scores}
}

func validateSample(x, y []float64) error {
	if len(x) != len(y) {
		return fmt.Errorf("bandwidth: X has %d observations, Y has %d", len(x), len(y))
	}
	if len(x) < 2 {
		return fmt.Errorf("bandwidth: need at least 2 observations, have %d", len(x))
	}
	return nil
}
