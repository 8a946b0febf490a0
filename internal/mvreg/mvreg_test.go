package mvreg

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/kernel"
	"repro/internal/mathx"
)

// bivariateSample draws X uniformly on the unit square with
// Y = X₁ + 2·X₂² + noise.
func bivariateSample(n int, seed int64) Sample {
	rng := rand.New(rand.NewSource(seed))
	s := Sample{X: make([][]float64, n), Y: make([]float64, n)}
	for i := 0; i < n; i++ {
		x1, x2 := rng.Float64(), rng.Float64()
		s.X[i] = []float64{x1, x2}
		s.Y[i] = x1 + 2*x2*x2 + 0.2*rng.NormFloat64()
	}
	return s
}

func TestValidate(t *testing.T) {
	good := bivariateSample(10, 1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Sample{
		{X: [][]float64{{1, 2}}, Y: []float64{1, 2}},
		{X: [][]float64{{1, 2}}, Y: []float64{1}},
		{X: [][]float64{{1, 2}, {1}}, Y: []float64{1, 2}},
		{X: [][]float64{{}, {}}, Y: []float64{1, 2}},
		{X: [][]float64{{1, math.NaN()}, {1, 2}}, Y: []float64{1, 2}},
		{X: [][]float64{{1, 2}, {3, 4}}, Y: []float64{1, math.Inf(1)}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d should be invalid", i)
		}
	}
}

func TestNewValidation(t *testing.T) {
	s := bivariateSample(20, 2)
	if _, err := New(s, []float64{0.1}, kernel.Epanechnikov); err == nil {
		t.Error("wrong bandwidth count should fail")
	}
	if _, err := New(s, []float64{0.1, 0}, kernel.Epanechnikov); err == nil {
		t.Error("zero bandwidth should fail")
	}
	m, err := New(s, []float64{0.2, 0.3}, kernel.Epanechnikov)
	if err != nil {
		t.Fatal(err)
	}
	// New must copy the bandwidth slice.
	h := []float64{0.2, 0.3}
	m2, _ := New(s, h, kernel.Epanechnikov)
	h[0] = 99
	if m2.H[0] == 99 {
		t.Error("New should copy the bandwidths")
	}
	_ = m
}

func TestPredictConstantY(t *testing.T) {
	s := bivariateSample(50, 3)
	for i := range s.Y {
		s.Y[i] = 7
	}
	m, err := New(s, []float64{0.3, 0.3}, kernel.Epanechnikov)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := m.Predict([]float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !ok || math.Abs(got-7) > 1e-12 {
		t.Errorf("constant-Y prediction = %v, %v", got, ok)
	}
}

func TestPredictEmptyNeighbourhood(t *testing.T) {
	s := Sample{X: [][]float64{{0, 0}, {1, 1}}, Y: []float64{1, 2}}
	m, err := New(s, []float64{0.1, 0.1}, kernel.Epanechnikov)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := m.Predict([]float64{0.5, 0.5}); ok || err != nil {
		t.Errorf("isolated point should report ok=false, nil error; got ok=%v err=%v", ok, err)
	}
}

func TestPredictDimensionMismatch(t *testing.T) {
	s := bivariateSample(20, 6)
	m, err := New(s, []float64{0.3, 0.3}, kernel.Epanechnikov)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = m.Predict([]float64{0.5})
	if err == nil {
		t.Fatal("dimension mismatch must return an error, not panic")
	}
	if !errors.Is(err, ErrDimension) {
		t.Errorf("error %v is not ErrDimension", err)
	}
	const want = "mvreg: inconsistent dimensions: Predict with 1 coordinates on a 2-dimensional model"
	if err.Error() != want {
		t.Errorf("error message %q, want %q", err.Error(), want)
	}
}

func TestPredictRecoverySurface(t *testing.T) {
	s := bivariateSample(4000, 4)
	m, err := New(s, []float64{0.1, 0.1}, kernel.Epanechnikov)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range [][]float64{{0.3, 0.3}, {0.5, 0.7}, {0.8, 0.2}} {
		got, ok, err := m.Predict(pt)
		if err != nil {
			t.Fatal(err)
		}
		want := pt[0] + 2*pt[1]*pt[1]
		if !ok || math.Abs(got-want) > 0.15 {
			t.Errorf("ĝ(%v) = %v, want ≈ %v", pt, got, want)
		}
	}
}

func TestCVScoreReducesToUnivariate(t *testing.T) {
	// A 1-dimensional mvreg sample must give exactly the bandwidth
	// package's CV score.
	rng := rand.New(rand.NewSource(5))
	n := 80
	x := make([]float64, n)
	y := make([]float64, n)
	s := Sample{X: make([][]float64, n), Y: make([]float64, n)}
	for i := 0; i < n; i++ {
		x[i] = rng.Float64()
		y[i] = rng.NormFloat64()
		s.X[i] = []float64{x[i]}
		s.Y[i] = y[i]
	}
	for _, h := range []float64{0.05, 0.2, 0.9} {
		a := CVScore(s, []float64{h}, kernel.Epanechnikov)
		b := bandwidth.CVScore(x, y, h, kernel.Epanechnikov)
		if !mathx.AlmostEqual(a, b, 1e-12) {
			t.Errorf("h=%v: mv %v vs uni %v", h, a, b)
		}
	}
}

func TestSweepDimensionMatchesNaive(t *testing.T) {
	// The weighted sorted sweep must reproduce the naive CV score for
	// every candidate bandwidth of the swept dimension.
	s := bivariateSample(60, 7)
	hFixed := []float64{0.3, 0.4}
	grid := []float64{0.1, 0.2, 0.3, 0.5, 0.8}
	for dim := 0; dim < 2; dim++ {
		scores := sweepDimensionOnce(s, hFixed, dim, grid)
		for q, hc := range grid {
			h := append([]float64(nil), hFixed...)
			h[dim] = hc
			want := CVScore(s, h, kernel.Epanechnikov)
			if !mathx.AlmostEqual(scores[q], want, 1e-9) {
				t.Errorf("dim %d h=%v: sweep %v vs naive %v", dim, hc, scores[q], want)
			}
		}
	}
}

func TestDefaultGrids(t *testing.T) {
	s := bivariateSample(100, 8)
	grids, err := DefaultGrids(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(grids) != 2 || len(grids[0]) != 10 {
		t.Fatalf("grid geometry wrong")
	}
	for j := range grids {
		for q := 1; q < len(grids[j]); q++ {
			if grids[j][q] <= grids[j][q-1] {
				t.Fatalf("grid %d not ascending", j)
			}
		}
	}
	// Degenerate dimension.
	for i := range s.X {
		s.X[i][1] = 0.5
	}
	if _, err := DefaultGrids(s, 10); err == nil {
		t.Error("zero-domain dimension should fail")
	}
}

func TestMeshSearchExactOnSmallMesh(t *testing.T) {
	s := bivariateSample(50, 9)
	grids := [][]float64{{0.2, 0.4, 0.8}, {0.2, 0.4, 0.8}}
	res, err := MeshSearchContext(context.Background(), s, grids, kernel.Epanechnikov)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evals != 9 {
		t.Errorf("mesh should evaluate 9 cells, did %d", res.Evals)
	}
	// Exhaustive check.
	best := math.Inf(1)
	var bestH []float64
	for _, h1 := range grids[0] {
		for _, h2 := range grids[1] {
			cv := CVScore(s, []float64{h1, h2}, kernel.Epanechnikov)
			if cv < best {
				best = cv
				bestH = []float64{h1, h2}
			}
		}
	}
	if !mathx.AlmostEqual(res.CV, best, 1e-12) || res.H[0] != bestH[0] || res.H[1] != bestH[1] {
		t.Errorf("mesh best %v (%v) vs exhaustive %v (%v)", res.H, res.CV, bestH, best)
	}
}

// TestDegenerateGridErrors pins the exact error text for every invalid
// grid shape, table-driven, for both searches (they share validateGrids)
// and for the zero-domain path in DefaultGrids.
func TestDegenerateGridErrors(t *testing.T) {
	s := bivariateSample(20, 10)
	big := make([]float64, 2000)
	for i := range big {
		big[i] = float64(i+1) * 0.001
	}
	cases := []struct {
		name  string
		grids [][]float64
		want  string
	}{
		{"grid-count-mismatch", [][]float64{{0.1}}, "mvreg: 1 grids for 2 dimensions"},
		{"empty-grid", [][]float64{{0.1}, {}}, "mvreg: empty grid for dimension 1"},
		{"descending-grid", [][]float64{{0.2, 0.1}, {0.1}}, "mvreg: grid 0 must ascend"},
		{"duplicate-grid-point", [][]float64{{0.1, 0.1}, {0.1}}, "mvreg: grid 0 must ascend"},
		{"non-positive-grid", [][]float64{{0.1, 0.2}, {-0.1, 0.2}}, "mvreg: grid 1 has non-positive bandwidths"},
		{"oversized-mesh", [][]float64{big, big}, "mvreg: mesh exceeds 1048576 cells"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := MeshSearchContext(context.Background(), s, tc.grids, kernel.Epanechnikov); err == nil || err.Error() != tc.want {
				t.Errorf("MeshSearchContext error = %v, want %q", err, tc.want)
			}
			if _, err := CoordinateDescent(s, tc.grids, 0); err == nil || err.Error() != tc.want {
				t.Errorf("CoordinateDescent error = %v, want %q", err, tc.want)
			}
		})
	}
	t.Run("zero-domain-dimension", func(t *testing.T) {
		flat := bivariateSample(20, 10)
		for i := range flat.X {
			flat.X[i][1] = 0.5
		}
		const want = "mvreg: dimension 1 has zero domain"
		if _, err := DefaultGrids(flat, 8); err == nil || err.Error() != want {
			t.Errorf("DefaultGrids error = %v, want %q", err, want)
		}
	})
}

func TestCoordinateDescentReachesCoordinatewiseOptimum(t *testing.T) {
	s := bivariateSample(120, 11)
	grids, err := DefaultGrids(s, 12)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CoordinateDescent(s, grids, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sweeps < 1 || res.Evals == 0 {
		t.Errorf("descent bookkeeping: %+v", res)
	}
	// No single-coordinate move on the grid improves the CV.
	base := CVScore(s, res.H, kernel.Epanechnikov)
	if !mathx.AlmostEqual(base, res.CV, 1e-9) {
		t.Errorf("reported CV %v vs recomputed %v", res.CV, base)
	}
	for dim := 0; dim < 2; dim++ {
		for _, hc := range grids[dim] {
			h := append([]float64(nil), res.H...)
			h[dim] = hc
			if cv := CVScore(s, h, kernel.Epanechnikov); cv < base-1e-9 {
				t.Errorf("coordinate move dim %d h=%v improves CV: %v < %v", dim, hc, cv, base)
			}
		}
	}
}

func TestCoordinateDescentAgreesWithMesh(t *testing.T) {
	// On a well-behaved surface the coordinate-wise optimum should match
	// the full mesh optimum (or at least its CV within a whisker).
	s := bivariateSample(80, 13)
	grids := [][]float64{{0.1, 0.2, 0.3, 0.5, 0.8}, {0.1, 0.2, 0.3, 0.5, 0.8}}
	mesh, err := MeshSearchContext(context.Background(), s, grids, kernel.Epanechnikov)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := CoordinateDescent(s, grids, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cd.CV > mesh.CV*1.05 {
		t.Errorf("descent CV %v far above mesh CV %v", cd.CV, mesh.CV)
	}
	if cd.Evals >= mesh.Evals*len(s.X) {
		t.Error("descent should evaluate far fewer full objectives than the mesh")
	}
}

func TestCoordinateDescentValidation(t *testing.T) {
	s := bivariateSample(20, 14)
	if _, err := CoordinateDescent(s, [][]float64{{0.1}}, 0); err == nil {
		t.Error("grid-count mismatch should fail")
	}
	if _, err := CoordinateDescent(s, [][]float64{{0.2, 0.1}, {0.1}}, 0); err == nil {
		t.Error("descending grid should fail")
	}
	if _, err := CoordinateDescent(s, [][]float64{{-0.1, 0.2}, {0.1}}, 0); err == nil {
		t.Error("negative bandwidth should fail")
	}
	if _, err := CoordinateDescent(s, [][]float64{{0.1}, {}}, 0); err == nil {
		t.Error("empty grid should fail")
	}
}

func TestAnisotropicBandwidths(t *testing.T) {
	// Y depends sharply on X₂ and weakly on X₁: CV should choose a
	// noticeably smaller bandwidth for X₂ than for X₁.
	rng := rand.New(rand.NewSource(15))
	n := 400
	s := Sample{X: make([][]float64, n), Y: make([]float64, n)}
	for i := 0; i < n; i++ {
		x1, x2 := rng.Float64(), rng.Float64()
		s.X[i] = []float64{x1, x2}
		s.Y[i] = 0.1*x1 + math.Sin(6*math.Pi*x2) + 0.1*rng.NormFloat64()
	}
	grids, err := DefaultGrids(s, 15)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CoordinateDescent(s, grids, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.H[1] < res.H[0]) {
		t.Errorf("expected h₂ < h₁ for the wavy dimension, got %v", res.H)
	}
}

// trivariateSample draws X uniformly on the unit cube with a smooth
// three-regressor response.
func trivariateSample(n int, seed int64) Sample {
	rng := rand.New(rand.NewSource(seed))
	s := Sample{X: make([][]float64, n), Y: make([]float64, n)}
	for i := 0; i < n; i++ {
		a, b, c := rng.Float64(), rng.Float64(), rng.Float64()
		s.X[i] = []float64{a, b, c}
		s.Y[i] = a + 0.5*b*b + math.Sin(4*c) + 0.1*rng.NormFloat64()
	}
	return s
}

// surfaceSample draws X uniformly on the unit square with a smooth
// response that couples both regressors.
func surfaceSample(n int, seed int64) Sample {
	rng := rand.New(rand.NewSource(seed))
	s := Sample{X: make([][]float64, n), Y: make([]float64, n)}
	for i := 0; i < n; i++ {
		a, b := rng.Float64(), rng.Float64()
		s.X[i] = []float64{a, b}
		s.Y[i] = a + 2*b*b + math.Sin(4*a*b) + 0.2*rng.NormFloat64()
	}
	return s
}

// TestMeshSweepMatchesNaivePath pins the tentpole invariant: the
// fast-sum-updating Epanechnikov mesh sweep and the per-cell naive
// odometer must agree on every cell's objective, on the winning cell,
// and on the eval count — including anisotropic grids, d=3, and one
// n = 1,000 sample on the default 8×8 mesh. A case with nil grids runs
// on DefaultGrids(s, 8) and is skipped under -short.
func TestMeshSweepMatchesNaivePath(t *testing.T) {
	cases := []struct {
		name  string
		s     Sample
		grids [][]float64
	}{
		{"bivariate", bivariateSample(70, 21), [][]float64{{0.15, 0.3, 0.45, 0.6, 0.9}, {0.15, 0.3, 0.45, 0.6, 0.9}}},
		{"anisotropic-grids", bivariateSample(55, 22), [][]float64{{0.1, 0.4, 1.2}, {0.05, 0.2, 0.35, 0.5, 0.7, 1.0, 1.5}}},
		{"duplicate-rows", Sample{
			X: [][]float64{{0.1, 0.2}, {0.1, 0.2}, {0.5, 0.5}, {0.9, 0.4}, {0.5, 0.5}},
			Y: []float64{1, 2, 3, 4, 3.5},
		}, [][]float64{{0.2, 0.5, 1.0}, {0.2, 0.5, 1.0}}},
		{"trivariate", trivariateSample(40, 23), [][]float64{{0.2, 0.5, 0.9}, {0.3, 0.6}, {0.25, 0.55, 0.85, 1.2}}},
		{"surface-n1000-default-grids", surfaceSample(1000, 42), nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.grids == nil {
				if testing.Short() {
					t.Skip("n = 1,000 naive mesh takes about 2 s")
				}
				grids, err := DefaultGrids(tc.s, 8)
				if err != nil {
					t.Fatal(err)
				}
				tc.grids = grids
			}
			fast, err := meshSweep(context.Background(), tc.s, tc.grids)
			if err != nil {
				t.Fatal(err)
			}
			naive, err := meshNaive(context.Background(), tc.s, tc.grids, kernel.Epanechnikov)
			if err != nil {
				t.Fatal(err)
			}
			if fast.Evals != naive.Evals {
				t.Errorf("evals: fast %d vs naive %d", fast.Evals, naive.Evals)
			}
			if !mathx.AlmostEqual(fast.CV, naive.CV, 1e-9) {
				t.Errorf("CV: fast %v vs naive %v", fast.CV, naive.CV)
			}
			for j := range fast.H {
				if fast.H[j] != naive.H[j] {
					t.Errorf("H: fast %v vs naive %v", fast.H, naive.H)
					break
				}
			}
			// Per-cell agreement against the oracle, not just the argmin.
			h := make([]float64, tc.s.Dim())
			for _, h0 := range tc.grids[0] {
				h[0] = h0
				if len(h) > 1 {
					h[1] = tc.grids[1][0]
				}
				if len(h) > 2 {
					h[2] = tc.grids[2][0]
				}
				want := CVScore(tc.s, h, kernel.Epanechnikov)
				got := sweepDimensionOnce(tc.s, h, 0, []float64{h0})
				if !mathx.AlmostEqual(got[0], want, 1e-9) {
					t.Errorf("cell h=%v: sweep %v vs oracle %v", h, got[0], want)
				}
			}
		})
	}
}

// TestMeshSearchTieBreakLowestIndex pins the deterministic tie-break:
// when every cell scores identically, both the fast sweep (Epanechnikov)
// and the naive path (Triangular) must return the first cell in odometer
// order — the lowest index in every dimension.
func TestMeshSearchTieBreakLowestIndex(t *testing.T) {
	grids := [][]float64{{0.2, 0.4, 0.8}, {0.3, 0.6}}
	for _, tc := range []struct {
		name string
		s    Sample
	}{
		{"constant-zero-response", func() Sample {
			s := bivariateSample(30, 31)
			for i := range s.Y {
				s.Y[i] = 0
			}
			return s
		}()},
		{"all-observations-isolated", Sample{
			X: [][]float64{{0, 0}, {10, 10}, {20, 20}},
			Y: []float64{1, 2, 3},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, k := range []kernel.Kind{kernel.Epanechnikov, kernel.Triangular} {
				res, err := MeshSearchContext(context.Background(), tc.s, grids, k)
				if err != nil {
					t.Fatal(err)
				}
				if res.CV != 0 {
					t.Errorf("%v: degenerate CV = %v, want exactly 0", k, res.CV)
				}
				if res.H[0] != grids[0][0] || res.H[1] != grids[1][0] {
					t.Errorf("%v: tie resolved to %v, want lowest-index cell (%v, %v)",
						k, res.H, grids[0][0], grids[1][0])
				}
			}
		})
	}
}

// TestCVScoreSubSpacingPolicy pins the masking policy: observations with
// an empty leave-one-out neighbourhood are excluded via the paper's
// M(X_i) indicator while the residual sum is still divided by the full n.
func TestCVScoreSubSpacingPolicy(t *testing.T) {
	// The isolated point at x=10 is masked at h=0.08; the two clustered
	// points see each other, so CV = (1² + 1²)/3 exactly.
	s := Sample{X: [][]float64{{0}, {0.05}, {10}}, Y: []float64{1, 2, 5}}
	if got, want := CVScore(s, []float64{0.08}, kernel.Epanechnikov), 2.0/3.0; got != want {
		t.Errorf("partial masking: CV = %v, want exactly %v", got, want)
	}
	// Sub-spacing bandwidth: every observation masked, objective exactly 0.
	if got := CVScore(s, []float64{1e-9}, kernel.Epanechnikov); got != 0 {
		t.Errorf("sub-spacing CV = %v, want exactly 0", got)
	}
	// The 1-dimensional reduction must agree with the univariate package
	// in the masked regime too.
	rng := rand.New(rand.NewSource(41))
	n := 30
	x := make([]float64, n)
	y := make([]float64, n)
	mv := Sample{X: make([][]float64, n), Y: make([]float64, n)}
	for i := 0; i < n; i++ {
		x[i] = float64(i) + 0.4*rng.Float64() // spacing ≈ 1
		y[i] = rng.NormFloat64()
		mv.X[i] = []float64{x[i]}
		mv.Y[i] = y[i]
	}
	for _, h := range []float64{0.05, 0.3, 0.7} { // all below the spacing for some points
		a := CVScore(mv, []float64{h}, kernel.Epanechnikov)
		b := bandwidth.CVScore(x, y, h, kernel.Epanechnikov)
		if !mathx.AlmostEqual(a, b, 1e-12) {
			t.Errorf("h=%v: mv %v vs uni %v", h, a, b)
		}
	}
	// The sweep inherits the same policy.
	sw := sweepDimensionOnce(s, []float64{0.08}, 0, []float64{1e-9, 0.08})
	if sw[0] != 0 {
		t.Errorf("sweep sub-spacing score = %v, want exactly 0", sw[0])
	}
	if want := 2.0 / 3.0; !mathx.AlmostEqual(sw[1], want, 1e-12) {
		t.Errorf("sweep partial-masking score = %v, want %v", sw[1], want)
	}
}

func TestMeshSearchContextCancellation(t *testing.T) {
	s := bivariateSample(300, 51)
	grids, err := DefaultGrids(s, 12)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MeshSearchContext(ctx, s, grids, kernel.Epanechnikov); !errors.Is(err, context.Canceled) {
		t.Errorf("sweep path: err = %v, want context.Canceled", err)
	}
	if _, err := MeshSearchContext(ctx, s, grids, kernel.Triangular); !errors.Is(err, context.Canceled) {
		t.Errorf("naive path: err = %v, want context.Canceled", err)
	}
	if _, err := CoordinateDescentContext(ctx, s, grids, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("coordinate descent: err = %v, want context.Canceled", err)
	}
}

func TestTrivariateCoordinateDescent(t *testing.T) {
	// Three dimensions: the mesh would cost k³ cells; coordinate descent
	// stays linear in d and still reaches a coordinate-wise optimum.
	rng := rand.New(rand.NewSource(33))
	n := 200
	s := Sample{X: make([][]float64, n), Y: make([]float64, n)}
	for i := 0; i < n; i++ {
		a, b, c := rng.Float64(), rng.Float64(), rng.Float64()
		s.X[i] = []float64{a, b, c}
		s.Y[i] = a + 0.5*b*b + math.Sin(4*c) + 0.1*rng.NormFloat64()
	}
	grids, err := DefaultGrids(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CoordinateDescent(s, grids, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.H) != 3 {
		t.Fatalf("bandwidth vector length %d", len(res.H))
	}
	base := CVScore(s, res.H, kernel.Epanechnikov)
	for dim := 0; dim < 3; dim++ {
		for _, hc := range grids[dim] {
			h := append([]float64(nil), res.H...)
			h[dim] = hc
			if cv := CVScore(s, h, kernel.Epanechnikov); cv < base-1e-9 {
				t.Errorf("dim %d h=%v improves CV: %v < %v", dim, hc, cv, base)
			}
		}
	}
}
