package bandwidth

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/data"
	"repro/internal/kernel"
	"repro/internal/mathx"
)

func TestNewGrid(t *testing.T) {
	g, err := NewGrid(0.1, 1.0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 10 || g.Min() != 0.1 || g.Max() != 1.0 {
		t.Errorf("grid = %+v", g)
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
	if _, err := NewGrid(0, 1, 5); err == nil {
		t.Error("zero min should fail")
	}
	if _, err := NewGrid(1, 0.5, 5); err == nil {
		t.Error("inverted range should fail")
	}
	if _, err := NewGrid(0.1, 1, 0); err != ErrEmptyGrid {
		t.Error("empty grid should fail with ErrEmptyGrid")
	}
	single, err := NewGrid(0.3, 0.3, 1)
	if err != nil || single.Len() != 1 || single.H[0] != 0.3 {
		t.Errorf("single grid = %+v, %v", single, err)
	}
}

func TestDefaultGridMatchesPaper(t *testing.T) {
	// Paper §IV: max bandwidth = domain of X, min = domain / k, evenly
	// spaced. For X spanning [0, 1] with k = 5: 0.2, 0.4, 0.6, 0.8, 1.0.
	x := []float64{0, 0.3, 0.7, 1}
	g, err := DefaultGrid(x, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	for i := range want {
		if math.Abs(g.H[i]-want[i]) > 1e-12 {
			t.Fatalf("DefaultGrid = %v, want %v", g.H, want)
		}
	}
	if _, err := DefaultGrid([]float64{1, 1, 1}, 5); err == nil {
		t.Error("zero-domain X should fail")
	}
	if _, err := DefaultGrid([]float64{1}, 5); err == nil {
		t.Error("single observation should fail")
	}
	if _, err := DefaultGrid(x, 0); err != ErrEmptyGrid {
		t.Error("k=0 should fail")
	}
}

func TestGridValidate(t *testing.T) {
	bad := []Grid{
		{},
		{H: []float64{0.5, 0.4}},
		{H: []float64{0, 0.5}},
		{H: []float64{-0.1}},
		{H: []float64{0.1, 0.1}},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("grid %d should be invalid", i)
		}
	}
}

func TestGridRefine(t *testing.T) {
	g, _ := NewGrid(0.1, 1.0, 10)
	r, err := g.Refine(5, 20)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 20 {
		t.Errorf("refined length %d", r.Len())
	}
	if r.Min() < g.H[4] || r.Max() > g.H[6] {
		t.Errorf("refined range [%v, %v] outside neighbours [%v, %v]", r.Min(), r.Max(), g.H[4], g.H[6])
	}
	// Endpoints of the original grid.
	if _, err := g.Refine(0, 10); err != nil {
		t.Errorf("refine at left edge: %v", err)
	}
	if _, err := g.Refine(9, 10); err != nil {
		t.Errorf("refine at right edge: %v", err)
	}
	if _, err := g.Refine(-1, 10); err == nil {
		t.Error("out-of-range index should fail")
	}
	// Single-point grid refinement still yields a usable bracket.
	single := Grid{H: []float64{0.5}}
	r2, err := single.Refine(0, 5)
	if err != nil || r2.Len() != 5 {
		t.Errorf("single refine = %+v, %v", r2, err)
	}
}

func TestGridRefineToSinglePointReturnsWinner(t *testing.T) {
	// Regression: Refine(idx, 1) used to call NewGrid(lo, hi, 1), which
	// returns {lo} — the *previous* grid point — instead of the winner.
	g, _ := NewGrid(0.1, 1.0, 10)
	for idx := 0; idx < g.Len(); idx++ {
		r, err := g.Refine(idx, 1)
		if err != nil {
			t.Fatalf("Refine(%d, 1): %v", idx, err)
		}
		if r.Len() != 1 {
			t.Fatalf("Refine(%d, 1) length = %d", idx, r.Len())
		}
		if r.H[0] != g.H[idx] {
			t.Errorf("Refine(%d, 1) = %v, want winner %v", idx, r.H[0], g.H[idx])
		}
	}
	// Single-point grid: refining to one point is the identity.
	single := Grid{H: []float64{0.5}}
	r, err := single.Refine(0, 1)
	if err != nil || r.Len() != 1 || r.H[0] != 0.5 {
		t.Errorf("single-point Refine(0,1) = %+v, %v; want {0.5}", r, err)
	}
}

func TestCVScoreInvalidBandwidth(t *testing.T) {
	d := data.GeneratePaper(50, 1)
	if !math.IsInf(CVScore(d.X, d.Y, 0, kernel.Epanechnikov), 1) {
		t.Error("h=0 should score +Inf")
	}
	if !math.IsInf(CVScore(d.X, d.Y, -1, kernel.Epanechnikov), 1) {
		t.Error("negative h should score +Inf")
	}
}

func TestCVScoreMatchesManual(t *testing.T) {
	// Tiny case computed by hand: x = {0, 0.5, 1}, y = {0, 1, 0}, h = 0.6.
	x := []float64{0, 0.5, 1}
	y := []float64{0, 1, 0}
	h := 0.6
	k := kernel.Epanechnikov
	var want float64
	for i := range x {
		var num, den float64
		for l := range x {
			if l == i {
				continue
			}
			w := k.Weight((x[i] - x[l]) / h)
			num += y[l] * w
			den += w
		}
		if den > 0 {
			r := y[i] - num/den
			want += r * r
		}
	}
	want /= 3
	if got := CVScore(x, y, h, k); math.Abs(got-want) > 1e-15 {
		t.Errorf("CVScore = %v, want %v", got, want)
	}
}

func TestSortedMatchesNaiveEpanechnikov(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, n := range []int{10, 50, 200} {
			d := data.GeneratePaper(n, seed)
			g, err := DefaultGrid(d.X, 25)
			if err != nil {
				t.Fatal(err)
			}
			naive, err := NaiveGridSearchContext(context.Background(), d.X, d.Y, g, kernel.Epanechnikov)
			if err != nil {
				t.Fatal(err)
			}
			sorted, err := SortedGridSearchKernelStabilityContext(context.Background(), d.X, d.Y, g, kernel.Epanechnikov, Compensated)
			if err != nil {
				t.Fatal(err)
			}
			if naive.Index != sorted.Index {
				t.Fatalf("seed %d n %d: indices differ: %d vs %d", seed, n, naive.Index, sorted.Index)
			}
			for j := range g.H {
				if !mathx.AlmostEqual(naive.Scores[j], sorted.Scores[j], 1e-9) {
					t.Fatalf("seed %d n %d h#%d: %v vs %v", seed, n, j, naive.Scores[j], sorted.Scores[j])
				}
			}
		}
	}
}

func TestSortedMatchesNaiveAllCompactKernels(t *testing.T) {
	d := data.Generate(data.Sine, 120, 5)
	g, err := DefaultGrid(d.X, 30)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []kernel.Kind{kernel.Epanechnikov, kernel.Uniform, kernel.Triangular} {
		naive, err := NaiveGridSearchContext(context.Background(), d.X, d.Y, g, k)
		if err != nil {
			t.Fatal(err)
		}
		sorted, err := SortedGridSearchKernelStabilityContext(context.Background(), d.X, d.Y, g, k, Compensated)
		if err != nil {
			t.Fatal(err)
		}
		if naive.Index != sorted.Index {
			t.Errorf("%v: indices differ: %d vs %d", k, naive.Index, sorted.Index)
		}
		for j := range g.H {
			if !mathx.AlmostEqual(naive.Scores[j], sorted.Scores[j], 1e-9) {
				t.Errorf("%v h#%d: %v vs %v", k, j, naive.Scores[j], sorted.Scores[j])
				break
			}
		}
	}
}

func TestSortedRejectsNonDecomposableKernels(t *testing.T) {
	d := data.GeneratePaper(30, 1)
	g, _ := DefaultGrid(d.X, 5)
	for _, k := range []kernel.Kind{kernel.Gaussian, kernel.Biweight, kernel.Triweight, kernel.Cosine} {
		if _, err := SortedGridSearchKernelStabilityContext(context.Background(), d.X, d.Y, g, k, Compensated); err == nil {
			t.Errorf("%v should be rejected by the sorted search", k)
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	d := data.GeneratePaper(300, 8)
	g, err := DefaultGrid(d.X, 40)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := SortedGridSearchKernelStabilityContext(context.Background(), d.X, d.Y, g, kernel.Epanechnikov, Compensated)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 7} {
		par, err := SortedGridSearchParallelStabilityContext(context.Background(), d.X, d.Y, g, workers, Compensated)
		if err != nil {
			t.Fatal(err)
		}
		if par.Index != seq.Index {
			t.Errorf("workers=%d: index %d vs %d", workers, par.Index, seq.Index)
		}
		for j := range g.H {
			if !mathx.AlmostEqual(par.Scores[j], seq.Scores[j], 1e-10) {
				t.Errorf("workers=%d h#%d: %v vs %v", workers, j, par.Scores[j], seq.Scores[j])
				break
			}
		}
	}
}

func TestAgreementProperty(t *testing.T) {
	// Property: sorted and naive agree on the selected index for random
	// data of random sizes.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(150)
		k := 2 + rng.Intn(30)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()
			y[i] = rng.NormFloat64()
		}
		g, err := DefaultGrid(x, k)
		if err != nil {
			return true // degenerate draw (all-equal X)
		}
		naive, err1 := NaiveGridSearchContext(context.Background(), x, y, g, kernel.Epanechnikov)
		sorted, err2 := SortedGridSearchKernelStabilityContext(context.Background(), x, y, g, kernel.Epanechnikov, Compensated)
		if err1 != nil || err2 != nil {
			return false
		}
		return naive.Index == sorted.Index &&
			mathx.AlmostEqual(naive.CV, sorted.CV, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestZeroDenominatorExclusion(t *testing.T) {
	// Clustered X with a bandwidth smaller than the gap: observations
	// isolated from their cluster get M = 0 and are excluded, but the
	// score is still finite.
	x := []float64{0.1, 0.1001, 0.9, 0.9001, 0.5}
	y := []float64{1, 1.1, 2, 2.1, 10}
	g := Grid{H: []float64{0.001, 0.01, 0.1}}
	naive, err := NaiveGridSearchContext(context.Background(), x, y, g, kernel.Epanechnikov)
	if err != nil {
		t.Fatal(err)
	}
	sorted, err := SortedGridSearchKernelStabilityContext(context.Background(), x, y, g, kernel.Epanechnikov, Compensated)
	if err != nil {
		t.Fatal(err)
	}
	for j := range g.H {
		if math.IsNaN(naive.Scores[j]) || math.IsNaN(sorted.Scores[j]) {
			t.Fatalf("scores must stay finite with isolated points")
		}
		if !mathx.AlmostEqual(naive.Scores[j], sorted.Scores[j], 1e-9) {
			t.Fatalf("h#%d: %v vs %v", j, naive.Scores[j], sorted.Scores[j])
		}
	}
}

func TestTwoObservations(t *testing.T) {
	x := []float64{0, 1}
	y := []float64{1, 3}
	g := Grid{H: []float64{0.5, 1.5}}
	r, err := SortedGridSearchKernelStabilityContext(context.Background(), x, y, g, kernel.Epanechnikov, Compensated)
	if err != nil {
		t.Fatal(err)
	}
	// h = 0.5: neither observation can see the other → all M = 0 →
	// score 0. h = 1.5: each LOO estimate is the other's Y.
	if r.Scores[0] != 0 {
		t.Errorf("isolated score = %v, want 0", r.Scores[0])
	}
	want := ((1.0-3.0)*(1.0-3.0) + (3.0-1.0)*(3.0-1.0)) / 2
	if math.Abs(r.Scores[1]-want) > 1e-12 {
		t.Errorf("paired score = %v, want %v", r.Scores[1], want)
	}
}

func TestBestTieBreaksLow(t *testing.T) {
	g := Grid{H: []float64{0.1, 0.2, 0.3}}
	r := Best(g, []float64{0.5, 0.3, 0.3})
	if r.Index != 1 || r.H != 0.2 {
		t.Errorf("tie should pick the lower index: %+v", r)
	}
	// All-NaN scores fall back to index 0 deterministically.
	nan := math.NaN()
	r2 := Best(g, []float64{nan, nan, nan})
	if r2.Index != 0 {
		t.Errorf("all-NaN best = %+v", r2)
	}
}

func TestInputValidation(t *testing.T) {
	g := Grid{H: []float64{0.5}}
	if _, err := SortedGridSearchKernelStabilityContext(context.Background(), []float64{1, 2}, []float64{1}, g, kernel.Epanechnikov, Compensated); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := SortedGridSearchKernelStabilityContext(context.Background(), []float64{1}, []float64{1}, g, kernel.Epanechnikov, Compensated); err == nil {
		t.Error("single observation should fail")
	}
	if _, err := NaiveGridSearchContext(context.Background(), []float64{1, 2}, []float64{1, 2}, Grid{}, kernel.Epanechnikov); err == nil {
		t.Error("empty grid should fail")
	}
	if _, err := SortedGridSearchParallelStabilityContext(context.Background(), []float64{1, 2}, []float64{1, 2}, Grid{H: []float64{-1}}, 2, Compensated); err == nil {
		t.Error("invalid grid should fail in parallel search")
	}
}

func TestCVDecreasesNoiseSensitivity(t *testing.T) {
	// On the paper's DGP the optimal bandwidth should be small but not
	// minimal: interior of the grid for a fine grid.
	d := data.GeneratePaper(500, 3)
	g, err := DefaultGrid(d.X, 100)
	if err != nil {
		t.Fatal(err)
	}
	r, err := SortedGridSearchKernelStabilityContext(context.Background(), d.X, d.Y, g, kernel.Epanechnikov, Compensated)
	if err != nil {
		t.Fatal(err)
	}
	if r.Index == g.Len()-1 {
		t.Errorf("optimal bandwidth at grid maximum (%v) suggests a broken objective", r.H)
	}
	if r.CV <= 0 {
		t.Errorf("CV score should be positive, got %v", r.CV)
	}
}

func TestScoresAlignedWithGrid(t *testing.T) {
	d := data.GeneratePaper(100, 2)
	g, _ := DefaultGrid(d.X, 20)
	r, err := SortedGridSearchKernelStabilityContext(context.Background(), d.X, d.Y, g, kernel.Epanechnikov, Compensated)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Scores) != g.Len() {
		t.Fatalf("scores length %d, grid %d", len(r.Scores), g.Len())
	}
	if r.Scores[r.Index] != r.CV {
		t.Error("CV must equal the score at the selected index")
	}
	for _, s := range r.Scores {
		if s < r.CV && !math.IsNaN(s) {
			t.Error("found a score below the reported minimum")
		}
	}
}
