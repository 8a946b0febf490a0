package bandwidth

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/data"
	"repro/internal/kernel"
	"repro/internal/mathx"
)

func TestAICcSortedMatchesNaive(t *testing.T) {
	for _, seed := range []int64{1, 6} {
		for _, n := range []int{30, 120, 300} {
			d := data.GeneratePaper(n, seed)
			g, err := DefaultGrid(d.X, 25)
			if err != nil {
				t.Fatal(err)
			}
			naive, err := NaiveGridSearchAICc(d.X, d.Y, g, kernel.Epanechnikov)
			if err != nil {
				t.Fatal(err)
			}
			sorted, err := SortedGridSearchAICc(d.X, d.Y, g)
			if err != nil {
				t.Fatal(err)
			}
			if naive.Index != sorted.Index {
				t.Errorf("seed %d n %d: indices %d vs %d", seed, n, naive.Index, sorted.Index)
			}
			for j := range g.H {
				a, b := naive.Scores[j], sorted.Scores[j]
				if math.IsInf(a, 1) != math.IsInf(b, 1) {
					t.Errorf("seed %d n %d h#%d: infinity mismatch %v vs %v", seed, n, j, a, b)
					continue
				}
				if !math.IsInf(a, 1) && !mathx.AlmostEqual(a, b, 1e-8) {
					t.Errorf("seed %d n %d h#%d: %v vs %v", seed, n, j, a, b)
				}
			}
		}
	}
}

func TestAICcProperty(t *testing.T) {
	f := func(seed int64) bool {
		x, y := randomSample(seed, 12, 100)
		g, err := DefaultGrid(x, 15)
		if err != nil {
			return true
		}
		naive, err1 := NaiveGridSearchAICc(x, y, g, kernel.Epanechnikov)
		sorted, err2 := SortedGridSearchAICc(x, y, g)
		if err1 != nil || err2 != nil {
			return false
		}
		return naive.Index == sorted.Index
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestAICcSelectsNearCV(t *testing.T) {
	// On the paper's DGP the AICc and LOO-CV selections should be in the
	// same neighbourhood (both are consistent criteria).
	d := data.GeneratePaper(400, 9)
	g, err := DefaultGrid(d.X, 100)
	if err != nil {
		t.Fatal(err)
	}
	cv, err := SortedGridSearchKernelStabilityContext(context.Background(), d.X, d.Y, g, kernel.Epanechnikov, Compensated)
	if err != nil {
		t.Fatal(err)
	}
	aicc, err := SortedGridSearchAICc(d.X, d.Y, g)
	if err != nil {
		t.Fatal(err)
	}
	if aicc.H > cv.H*4 || aicc.H < cv.H/4 {
		t.Errorf("AICc h = %v far from CV h = %v", aicc.H, cv.H)
	}
}

func TestAICcDegenerateCases(t *testing.T) {
	d := data.GeneratePaper(40, 2)
	// h = 0 → +Inf.
	if !math.IsInf(AICcScore(d.X, d.Y, 0, kernel.Epanechnikov), 1) {
		t.Error("h=0 should score +Inf")
	}
	// Tiny h: every point isolated except self-weight; trace saturates →
	// +Inf (degenerate interpolation), never selected.
	tiny := AICcScore(d.X, d.Y, 1e-9, kernel.Epanechnikov)
	if !math.IsInf(tiny, 1) {
		t.Errorf("interpolating fit should be penalised to +Inf, got %v", tiny)
	}
	// Validation.
	g := Grid{H: []float64{0.5}}
	if _, err := NaiveGridSearchAICc(d.X, d.Y[:3], g, kernel.Epanechnikov); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := SortedGridSearchAICc(d.X, d.Y, Grid{}); err == nil {
		t.Error("empty grid should fail")
	}
}

func TestAICcPenalisesRoughness(t *testing.T) {
	// The AICc at very small (but non-degenerate) h must exceed the AICc
	// at the selected optimum: the trace penalty bites.
	d := data.GeneratePaper(300, 5)
	g, _ := DefaultGrid(d.X, 60)
	res, err := SortedGridSearchAICc(d.X, d.Y, g)
	if err != nil {
		t.Fatal(err)
	}
	small := AICcScore(d.X, d.Y, g.H[0], kernel.Epanechnikov)
	if !(res.CV < small) && !math.IsInf(small, 1) {
		t.Errorf("optimum %v should beat the smallest bandwidth %v", res.CV, small)
	}
}
