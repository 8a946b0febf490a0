package bandwidth

import (
	"context"
	"math"

	"repro/internal/kernel"
)

// Local-linear cross-validation. The R np package the paper benchmarks
// against offers both regression types (regtype="lc" local-constant,
// regtype="ll" local-linear); this file provides the "ll" objective and
// shows that the paper's sorted incremental trick extends to it: the
// weighted-least-squares moments are polynomials in the signed distance
// δ = X_l − X_i and in δ²/h², so nine prefix sums over the |δ|-sorted
// neighbours evaluate the whole ascending bandwidth grid in one sweep
// per observation.

// looLocalLinear computes the leave-one-out local-linear estimate at
// x[i], returning (estimate, ok).
//
//kernvet:ignore compsum -- naive reference oracle: the conformance harness pins these plain WLS moment sums; the stable fast path is localLinearSweep
func looLocalLinear(x, y []float64, i int, h float64, k kernel.Kind) (float64, bool) {
	var s0, s1, s2, t0, t1 float64
	xi := x[i]
	for l := range x {
		if l == i {
			continue
		}
		w := k.Weight((xi - x[l]) / h)
		if w == 0 {
			continue
		}
		d := x[l] - xi
		s0 += w
		s1 += w * d
		s2 += w * d * d
		t0 += w * y[l]
		t1 += w * d * y[l]
	}
	if s0 <= 0 {
		return math.NaN(), false
	}
	det := s0*s2 - s1*s1
	// Relative singularity guard: by Cauchy–Schwarz det ≥ 0, and when it
	// is a tiny fraction of s0·s2 the slope is numerically unidentified —
	// fall back to the local-constant value. The guard must match the
	// sorted sweep's so that both paths agree bitwise in intent.
	if !(det > llDetTol*s0*s2) {
		return t0 / s0, true
	}
	return (s2*t0 - s1*t1) / det, true
}

// llDetTol is the relative determinant threshold below which the local
// WLS design is treated as singular.
const llDetTol = 1e-8

// CVScoreLocalLinear evaluates the leave-one-out CV objective for the
// local-linear estimator at a single bandwidth, O(n²). Non-positive h
// scores +Inf.
func CVScoreLocalLinear(x, y []float64, h float64, k kernel.Kind) float64 {
	s, _ := cvScoreLocalLinearContext(context.Background(), x, y, h, k)
	return s
}

// cvScoreLocalLinearContext is CVScoreLocalLinear with a cancellation
// poll per observation; the check only early-exits, so a completed
// evaluation is arithmetically identical.
//
//kernvet:ignore compsum -- naive reference oracle: plain residual sum is the arithmetic the conformance harness compares fast paths against
func cvScoreLocalLinearContext(ctx context.Context, x, y []float64, h float64, k kernel.Kind) (float64, error) {
	if !(h > 0) {
		return math.Inf(1), nil
	}
	n := len(x)
	var total float64
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		g, ok := looLocalLinear(x, y, i, h, k)
		if ok {
			r := y[i] - g
			total += r * r
		}
	}
	return total / float64(n), nil
}

// NaiveGridSearchLocalLinearContext evaluates CVScoreLocalLinear
// independently per grid point, for any kernel: the oracle of the
// local-linear family. Like NaiveGridSearchContext it polls ctx once
// per observation of each grid point's row; cancellation returns
// ctx.Err() and a zero Result.
func NaiveGridSearchLocalLinearContext(ctx context.Context, x, y []float64, g Grid, k kernel.Kind) (Result, error) {
	if err := validateSample(x, y); err != nil {
		return Result{}, err
	}
	if err := g.Validate(); err != nil {
		return Result{}, err
	}
	scores := make([]float64, g.Len())
	for j, h := range g.H {
		s, err := cvScoreLocalLinearContext(ctx, x, y, h, k)
		if err != nil {
			return Result{}, err
		}
		scores[j] = s
	}
	return Best(g, scores), nil
}

// localLinearSweep accumulates squared LOO residuals for every grid
// bandwidth using the Epanechnikov prefix decomposition, over one
// observation's neighbours (signed δ and Y, nearest first). With w =
// 0.75(1 − δ²/h²) on |δ| ≤ h, the WLS moments factor as
//
//	s0 = 0.75(c    − S_d2/h²)      s1 = 0.75(S_δ   − S_δ3/h²)
//	s2 = 0.75(S_d2 − S_d4/h²)      t0 = 0.75(S_y   − S_yd2/h²)
//	t1 = 0.75(S_yδ − S_yδ3/h²)
//
// so nine running sums suffice across the ascending grid. comp selects
// Neumaier accumulation for them (windowAcc). The WLS moments mix signs
// (δ and δ³ sums cancel around symmetric neighbourhoods, and offset Y
// inflates the t-moments), so the local-linear sweep is even more
// exposed to fast-sum-updating cancellation than the local-constant one.
func localLinearSweep(delta, yv []float64, yi float64, grid []float64, comp bool, scores []float64) {
	var cnt float64
	var sD2, sD4, sDelta, sDelta3, sY, sYD2, sYDelta, sYDelta3 windowAcc
	ptr := 0
	for j, h := range grid {
		for ptr < len(delta) && math.Abs(delta[ptr]) <= h {
			d := delta[ptr]
			d2 := d * d
			yl := yv[ptr]
			cnt++
			sD2, sD4 = sD2.add(d2, comp), sD4.add(d2*d2, comp)
			sDelta, sDelta3 = sDelta.add(d, comp), sDelta3.add(d2*d, comp)
			sY, sYD2 = sY.add(yl, comp), sYD2.add(yl*d2, comp)
			sYDelta, sYDelta3 = sYDelta.add(yl*d, comp), sYDelta3.add(yl*d2*d, comp)
			ptr++
		}
		h2 := h * h
		s0 := 0.75 * (cnt - sD2.sum()/h2)
		if s0 <= 0 {
			continue
		}
		s1 := 0.75 * (sDelta.sum() - sDelta3.sum()/h2)
		s2 := 0.75 * (sD2.sum() - sD4.sum()/h2)
		t0 := 0.75 * (sY.sum() - sYD2.sum()/h2)
		t1 := 0.75 * (sYDelta.sum() - sYDelta3.sum()/h2)
		det := s0*s2 - s1*s1
		var g float64
		if !(det > llDetTol*s0*s2) {
			g = t0 / s0
		} else {
			g = (s2*t0 - s1*t1) / det
		}
		r := yi - g
		scores[j] += r * r
	}
}

// SortedGridSearchLocalLinearStabilityContext runs the sorted
// incremental grid search for the local-linear estimator with the
// Epanechnikov kernel — the "ll" analogue of
// SortedGridSearchKernelStabilityContext, showing that the paper's
// technique is not specific to the local-constant estimator. It serves
// both ll-sorted and twopointer's local-linear objective. st selects
// the summation mode of the nine-sum sweep. ctx is polled once per
// observation (one O(n) neighbour merge plus an O(n + k) sweep);
// cancellation returns ctx.Err() and a zero Result.
func SortedGridSearchLocalLinearStabilityContext(ctx context.Context, x, y []float64, g Grid, st Stability) (Result, error) {
	if err := validateSample(x, y); err != nil {
		return Result{}, err
	}
	if err := g.Validate(); err != nil {
		return Result{}, err
	}
	ws := AcquireWorkspace(len(x), g.Len())
	defer ws.Release()
	scores := make([]float64, g.Len())
	comp := st == Compensated
	err := ws.neighbours(x, y).rows(ctx, 0, 1, false, ws, func(yi float64, delta, yv []float64) {
		localLinearSweep(delta, yv, yi, g.H, comp, scores)
	})
	if err != nil {
		return Result{}, err
	}
	for j := range scores {
		scores[j] /= float64(len(x))
	}
	return Best(g, scores), nil
}
