package mvreg

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/kernel"
)

func parallelSample(n, d int, seed int64) Sample {
	rng := rand.New(rand.NewSource(seed))
	s := Sample{}
	for i := 0; i < n; i++ {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.Float64()
		}
		y := 0.0
		for j, v := range row {
			y += math.Sin(float64(j+2) * v)
		}
		s.X = append(s.X, row)
		s.Y = append(s.Y, y+0.1*rng.NormFloat64())
	}
	return s
}

// TestMeshParallelBitIdentical is the satellite's core claim: sharding
// mesh columns across workers changes nothing — not the selected cell,
// not a single bit of H or CV — for any worker count, including counts
// that do not divide the column count evenly.
func TestMeshParallelBitIdentical(t *testing.T) {
	cases := []struct {
		name  string
		s     Sample
		grids [][]float64
	}{
		{"d2", parallelSample(80, 2, 1), [][]float64{mvTestGrid(0.1, 1, 7), mvTestGrid(0.1, 1, 5)}},
		{"d3", parallelSample(48, 3, 2), [][]float64{mvTestGrid(0.15, 1.2, 4), mvTestGrid(0.1, 0.9, 3), mvTestGrid(0.2, 1.1, 5)}},
		{"d1", parallelSample(64, 1, 3), [][]float64{mvTestGrid(0.05, 1.5, 9)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seq, err := MeshSearch(tc.s, tc.grids, kernel.Epanechnikov)
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			for _, workers := range []int{1, 2, 3, 4, 7, 0} {
				par, err := MeshSearchParallelContext(context.Background(), tc.s, tc.grids, kernel.Epanechnikov, workers)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if math.Float64bits(par.CV) != math.Float64bits(seq.CV) {
					t.Errorf("workers=%d: CV bits %016x, want %016x", workers, math.Float64bits(par.CV), math.Float64bits(seq.CV))
				}
				if len(par.H) != len(seq.H) {
					t.Fatalf("workers=%d: H length %d, want %d", workers, len(par.H), len(seq.H))
				}
				for j := range seq.H {
					if math.Float64bits(par.H[j]) != math.Float64bits(seq.H[j]) {
						t.Errorf("workers=%d: H[%d] bits %016x, want %016x", workers, j, math.Float64bits(par.H[j]), math.Float64bits(seq.H[j]))
					}
				}
				if par.Evals != seq.Evals {
					t.Errorf("workers=%d: Evals %d, want %d", workers, par.Evals, seq.Evals)
				}
			}
		})
	}
}

// TestMeshParallelTies pins the lowest-index tie-break under sharding: a
// constant-Y sample scores identically at every cell, so the merge must
// return the very first cell — whichever worker owned it.
func TestMeshParallelTies(t *testing.T) {
	s := Sample{}
	for i := 0; i < 24; i++ {
		s.X = append(s.X, []float64{float64(i) / 8, float64(i%5) / 4})
		s.Y = append(s.Y, 1.0)
	}
	grids := [][]float64{mvTestGrid(0.5, 2, 4), mvTestGrid(0.5, 2, 6)}
	seq, err := MeshSearch(s, grids, kernel.Epanechnikov)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 5} {
		par, err := MeshSearchParallelContext(context.Background(), s, grids, kernel.Epanechnikov, workers)
		if err != nil {
			t.Fatal(err)
		}
		for j := range seq.H {
			if math.Float64bits(par.H[j]) != math.Float64bits(seq.H[j]) {
				t.Fatalf("workers=%d: tie resolved to %v, sequential chose %v", workers, par.H, seq.H)
			}
		}
	}
}

// TestMeshParallelNaiveFallback: non-Epanechnikov kernels take the
// sequential naive path and must agree with MeshSearch exactly.
func TestMeshParallelNaiveFallback(t *testing.T) {
	s := parallelSample(32, 2, 4)
	grids := [][]float64{mvTestGrid(0.2, 1, 4), mvTestGrid(0.2, 1, 4)}
	seq, err := MeshSearch(s, grids, kernel.Gaussian)
	if err != nil {
		t.Fatal(err)
	}
	par, err := MeshSearchParallelContext(context.Background(), s, grids, kernel.Gaussian, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(par.CV) != math.Float64bits(seq.CV) {
		t.Errorf("fallback CV bits differ: %016x vs %016x", math.Float64bits(par.CV), math.Float64bits(seq.CV))
	}
}

func TestMeshParallelCancellation(t *testing.T) {
	s := parallelSample(96, 2, 5)
	grids := [][]float64{mvTestGrid(0.1, 1, 8), mvTestGrid(0.1, 1, 8)}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := MeshSearchParallelContext(ctx, s, grids, kernel.Epanechnikov, 3)
	if err == nil {
		t.Fatal("pre-cancelled context accepted")
	}
	if res.H != nil || res.Evals != 0 {
		t.Fatalf("cancelled search leaked a partial result: %+v", res)
	}
}

// mvTestGrid builds k ascending candidates from lo to hi.
func mvTestGrid(lo, hi float64, k int) []float64 {
	g := make([]float64, k)
	for q := 0; q < k; q++ {
		g[q] = lo + (hi-lo)*float64(q)/float64(k-1)
	}
	return g
}
