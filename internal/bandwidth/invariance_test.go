package bandwidth

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/kernel"
	"repro/internal/mathx"
)

// Invariance properties of the CV objective and the grid search. These
// pin down the estimator's mathematical structure rather than specific
// outputs: the kernel weight depends only on (X_i − X_l)/h, so CV(h) is
// invariant to translating X, equivariant to scaling X (with h), and
// invariant to permuting the sample.

func randomSample(seed int64, minN, maxN int) ([]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	n := minN + rng.Intn(maxN-minN)
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
		y[i] = rng.NormFloat64()
	}
	return x, y
}

func TestCVTranslationInvariance(t *testing.T) {
	f := func(seed int64, rawShift float64) bool {
		shift := math.Mod(rawShift, 100)
		if math.IsNaN(shift) || math.IsInf(shift, 0) {
			return true
		}
		x, y := randomSample(seed, 10, 80)
		shifted := make([]float64, len(x))
		for i := range x {
			shifted[i] = x[i] + shift
		}
		h := 0.2
		a := CVScore(x, y, h, kernel.Epanechnikov)
		b := CVScore(shifted, y, h, kernel.Epanechnikov)
		return mathx.AlmostEqual(a, b, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCVScaleEquivariance(t *testing.T) {
	// CV(h; X) = CV(c·h; c·X) exactly: the kernel argument and the Y
	// values are unchanged.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := 0.5 + 4*rng.Float64()
		x, y := randomSample(seed, 10, 80)
		scaled := make([]float64, len(x))
		for i := range x {
			scaled[i] = c * x[i]
		}
		h := 0.15
		a := CVScore(x, y, h, kernel.Epanechnikov)
		b := CVScore(scaled, y, c*h, kernel.Epanechnikov)
		return mathx.AlmostEqual(a, b, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCVPermutationInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x, y := randomSample(seed, 10, 80)
		perm := rng.Perm(len(x))
		px := make([]float64, len(x))
		py := make([]float64, len(y))
		for i, p := range perm {
			px[i] = x[p]
			py[i] = y[p]
		}
		h := 0.25
		a := CVScore(x, y, h, kernel.Epanechnikov)
		b := CVScore(px, py, h, kernel.Epanechnikov)
		return mathx.AlmostEqual(a, b, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSortedSearchPermutationInvariance(t *testing.T) {
	// The whole grid search — not just one score — must not depend on
	// observation order.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x, y := randomSample(seed, 12, 60)
		g, err := DefaultGrid(x, 15)
		if err != nil {
			return true
		}
		a, err := SortedGridSearchKernelStabilityContext(context.Background(), x, y, g, kernel.Epanechnikov, Compensated)
		if err != nil {
			return false
		}
		perm := rng.Perm(len(x))
		px := make([]float64, len(x))
		py := make([]float64, len(y))
		for i, p := range perm {
			px[i] = x[p]
			py[i] = y[p]
		}
		b, err := SortedGridSearchKernelStabilityContext(context.Background(), px, py, g, kernel.Epanechnikov, Compensated)
		if err != nil {
			return false
		}
		if a.Index != b.Index {
			return false
		}
		for j := range a.Scores {
			if !mathx.AlmostEqual(a.Scores[j], b.Scores[j], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCVYShiftBehaviour(t *testing.T) {
	// Adding a constant to Y leaves every LOO residual — hence CV —
	// unchanged (the weighted mean shifts by the same constant).
	f := func(seed int64, rawShift float64) bool {
		shift := math.Mod(rawShift, 50)
		if math.IsNaN(shift) || math.IsInf(shift, 0) {
			return true
		}
		x, y := randomSample(seed, 10, 60)
		ys := make([]float64, len(y))
		for i := range y {
			ys[i] = y[i] + shift
		}
		h := 0.3
		a := CVScore(x, y, h, kernel.Epanechnikov)
		b := CVScore(x, ys, h, kernel.Epanechnikov)
		return mathx.AlmostEqual(a, b, 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCVYScaleQuadratic(t *testing.T) {
	// Scaling Y by c scales every residual by c, so CV scales by c².
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := 0.5 + 3*rng.Float64()
		x, y := randomSample(seed, 10, 60)
		ys := make([]float64, len(y))
		for i := range y {
			ys[i] = c * y[i]
		}
		h := 0.3
		a := CVScore(x, y, h, kernel.Epanechnikov)
		b := CVScore(x, ys, h, kernel.Epanechnikov)
		return mathx.AlmostEqual(b, c*c*a, 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestHugeBandwidthEqualsGlobalMean(t *testing.T) {
	// As h → ∞ every kernel weight is K(≈0) and the LOO estimate tends
	// to the leave-one-out global mean.
	x, y := randomSample(3, 30, 31)
	n := len(x)
	huge := 1e9
	got := CVScore(x, y, huge, kernel.Epanechnikov)
	var want float64
	var sum float64
	for _, v := range y {
		sum += v
	}
	for i := range y {
		loo := (sum - y[i]) / float64(n-1)
		d := y[i] - loo
		want += d * d
	}
	want /= float64(n)
	if !mathx.AlmostEqual(got, want, 1e-6) {
		t.Errorf("huge-h CV = %v, global-mean CV = %v", got, want)
	}
}

func TestTinyBandwidthExcludesEverything(t *testing.T) {
	// With h smaller than any pairwise gap, every denominator is zero,
	// every M(X_i) = 0, and CV = 0 (no terms survive).
	x := []float64{0.1, 0.3, 0.5, 0.7}
	y := []float64{1, 2, 3, 4}
	got := CVScore(x, y, 1e-6, kernel.Epanechnikov)
	if got != 0 {
		t.Errorf("tiny-h CV = %v, want 0", got)
	}
}

func TestGridMonotonePointerNeverRegresses(t *testing.T) {
	// White-box property of the sweep: scores computed with a coarse
	// grid must be a subset of those computed with a finer grid that
	// contains the coarse points.
	x, y := randomSample(9, 50, 51)
	coarse := Grid{H: []float64{0.2, 0.4, 0.8}}
	fine := Grid{H: []float64{0.1, 0.2, 0.3, 0.4, 0.6, 0.8}}
	rc, err := SortedGridSearchKernelStabilityContext(context.Background(), x, y, coarse, kernel.Epanechnikov, Compensated)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := SortedGridSearchKernelStabilityContext(context.Background(), x, y, fine, kernel.Epanechnikov, Compensated)
	if err != nil {
		t.Fatal(err)
	}
	pairs := map[int]int{0: 1, 1: 3, 2: 5} // coarse index → fine index
	for ci, fi := range pairs {
		if !mathx.AlmostEqual(rc.Scores[ci], rf.Scores[fi], 1e-10) {
			t.Errorf("h=%v: coarse %v vs fine %v", coarse.H[ci], rc.Scores[ci], rf.Scores[fi])
		}
	}
}
