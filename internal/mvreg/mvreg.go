// Package mvreg extends the bandwidth-selection machinery to multivariate
// kernel regression, the setting the paper's §I anticipates: "an
// evenly-spaced grid or matrix in multivariate contexts". The estimator is
// the Nadaraya–Watson local-constant mean with a product kernel
//
//	W_l(x) = Π_d K((x_d − X_{l,d}) / h_d)
//
// and a bandwidth vector h selected by leave-one-out cross-validation.
//
// Two searches are provided:
//
//   - MeshSearchContext evaluates CV on the full Cartesian product of
//     per-dimension grids. For the product Epanechnikov kernel it runs the
//     fast-sum-updating sweep (see sweep.go): dimension 0 is swept
//     incrementally over one co-sorted axis order, so a k₀-point axis
//     costs one weighted merge instead of k₀ full passes. Other kernels
//     fall back to the naive per-cell objective.
//   - CoordinateDescent cycles through dimensions, re-optimising one
//     bandwidth at a time; each one-dimensional pass reuses the paper's
//     sorted incremental sweep, generalised to carry the other
//     dimensions' kernel weights as observation weights.
//
// Both poll cancellation at sweep granularity (CoordinateDescentContext
// for the second).
package mvreg

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/kernel"
	"repro/internal/mathx"
	"repro/internal/stats"
)

// ErrDimension is returned when observations disagree on dimensionality.
var ErrDimension = errors.New("mvreg: inconsistent dimensions")

// Sample is a multivariate regression sample: X[i] is observation i's
// regressor vector, Y[i] its response.
type Sample struct {
	X [][]float64
	Y []float64
}

// Dim returns the regressor dimensionality (0 for an empty sample).
func (s Sample) Dim() int {
	if len(s.X) == 0 {
		return 0
	}
	return len(s.X[0])
}

// Validate checks lengths, dimensional consistency, and finiteness.
func (s Sample) Validate() error {
	if len(s.X) != len(s.Y) {
		return fmt.Errorf("mvreg: %d regressor rows, %d responses", len(s.X), len(s.Y))
	}
	if len(s.X) < 2 {
		return fmt.Errorf("mvreg: need at least 2 observations, have %d", len(s.X))
	}
	d := len(s.X[0])
	if d == 0 {
		return errors.New("mvreg: zero-dimensional regressors")
	}
	for i, row := range s.X {
		if len(row) != d {
			return fmt.Errorf("%w: row %d has %d coordinates, row 0 has %d", ErrDimension, i, len(row), d)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("mvreg: X[%d][%d] not finite", i, j)
			}
		}
		if math.IsNaN(s.Y[i]) || math.IsInf(s.Y[i], 0) {
			return fmt.Errorf("mvreg: Y[%d] not finite", i)
		}
	}
	return nil
}

// Model is a fitted multivariate kernel regression.
type Model struct {
	Sample Sample
	H      []float64
	Kernel kernel.Kind
}

// New validates and constructs a Model. len(h) must equal the sample
// dimension and every bandwidth must be positive.
func New(s Sample, h []float64, k kernel.Kind) (*Model, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if len(h) != s.Dim() {
		return nil, fmt.Errorf("mvreg: %d bandwidths for %d dimensions", len(h), s.Dim())
	}
	for j, v := range h {
		if !(v > 0) {
			return nil, fmt.Errorf("mvreg: bandwidth %d must be positive, got %g", j, v)
		}
	}
	return &Model{Sample: s, H: append([]float64(nil), h...), Kernel: k}, nil
}

// weight evaluates the product kernel between x0 and observation l.
func (m *Model) weight(x0 []float64, l int) float64 {
	w := 1.0
	for j, h := range m.H {
		w *= m.Kernel.Weight((x0[j] - m.Sample.X[l][j]) / h)
		if w == 0 {
			return 0
		}
	}
	return w
}

// Predict returns the product-kernel Nadaraya–Watson estimate at x0; ok
// is false when no observation carries weight there. A query whose
// dimensionality disagrees with the model's is bad user input, not a
// programming error, so it returns an ErrDimension-wrapped error rather
// than panicking.
func (m *Model) Predict(x0 []float64) (float64, bool, error) {
	if len(x0) != m.Sample.Dim() {
		return math.NaN(), false, fmt.Errorf("%w: Predict with %d coordinates on a %d-dimensional model", ErrDimension, len(x0), m.Sample.Dim())
	}
	var num, den mathx.NeumaierAccumulator
	for l := range m.Sample.X {
		w := m.weight(x0, l)
		num.Add(m.Sample.Y[l] * w)
		den.Add(w)
	}
	if den.Sum() <= 0 {
		return math.NaN(), false, nil
	}
	return num.Sum() / den.Sum(), true, nil
}

// CVScore computes the leave-one-out cross-validation objective at the
// bandwidth vector h — the direct multivariate analogue of the paper's
// eq. 1 — in O(n²·d).
//
// Masking policy (identical to the univariate bandwidth.CVScore):
// observations whose leave-one-out denominator is zero are excluded via
// the paper's M(X_i) indicator, and the residual sum is still divided by
// the full n, exactly as in the paper. At sub-spacing bandwidths every
// observation is masked and the objective is exactly 0, so searches
// resolve the resulting ties deterministically to the lowest-index cell
// — the same degenerate contract the conformance battery pins for all
// univariate selectors.
//
//kernvet:ignore compsum -- the multivariate conformance oracle: the fast mesh sweep and the public selectors are differentially tested against these exact plain sums, so they must not change
func CVScore(s Sample, h []float64, k kernel.Kind) float64 {
	for _, v := range h {
		if !(v > 0) {
			return math.Inf(1)
		}
	}
	n := len(s.X)
	d := len(h)
	var total float64
	for i := 0; i < n; i++ {
		var num, den float64
		for l := 0; l < n; l++ {
			if l == i {
				continue
			}
			w := 1.0
			for j := 0; j < d; j++ {
				w *= k.Weight((s.X[i][j] - s.X[l][j]) / h[j])
				if w == 0 {
					break
				}
			}
			num += s.Y[l] * w
			den += w
		}
		if den > 0 {
			r := s.Y[i] - num/den
			total += r * r
		}
	}
	return total / float64(n)
}

// Result is a multivariate bandwidth selection.
type Result struct {
	H      []float64 // selected bandwidth vector
	CV     float64
	Evals  int // CV-objective evaluations (mesh cells or sweep points)
	Sweeps int // coordinate-descent passes performed (0 for MeshSearchContext)
}

// DefaultGrids builds the paper's default grid independently per
// dimension: k values from domain_j/k to domain_j.
func DefaultGrids(s Sample, k int) ([][]float64, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, errors.New("mvreg: need at least one bandwidth per dimension")
	}
	d := s.Dim()
	grids := make([][]float64, d)
	col := make([]float64, len(s.X))
	for j := 0; j < d; j++ {
		for i := range s.X {
			col[i] = s.X[i][j]
		}
		domain := stats.Range(col)
		if !(domain > 0) {
			return nil, fmt.Errorf("mvreg: dimension %d has zero domain", j)
		}
		g := make([]float64, k)
		for q := 1; q <= k; q++ {
			g[q-1] = domain * float64(q) / float64(k)
		}
		grids[j] = g
	}
	return grids, nil
}

// MaxMeshCells bounds the Cartesian product MeshSearchContext will enumerate.
const MaxMeshCells = 1 << 20

// validateGrids applies the shared per-dimension grid contract: one grid
// per dimension, each non-empty, strictly ascending and positive, with
// the Cartesian product bounded by MaxMeshCells. Ascending order is what
// lets the sweeps serve a whole axis from one set of prefix sums.
func validateGrids(s Sample, grids [][]float64) error {
	if len(grids) != s.Dim() {
		return fmt.Errorf("mvreg: %d grids for %d dimensions", len(grids), s.Dim())
	}
	cells := 1
	for j, g := range grids {
		if len(g) == 0 {
			return fmt.Errorf("mvreg: empty grid for dimension %d", j)
		}
		for q := 1; q < len(g); q++ {
			if g[q] <= g[q-1] {
				return fmt.Errorf("mvreg: grid %d must ascend", j)
			}
		}
		if !(g[0] > 0) {
			return fmt.Errorf("mvreg: grid %d has non-positive bandwidths", j)
		}
		if cells > MaxMeshCells/len(g) {
			return fmt.Errorf("mvreg: mesh exceeds %d cells", MaxMeshCells)
		}
		cells *= len(g)
	}
	return nil
}

// MeshSearchContext evaluates CV over the full Cartesian product of the
// per-dimension grids and returns the best bandwidth vector. Exact over
// the mesh; cost grows as Πk_d, so it refuses meshes above MaxMeshCells.
// ctx is polled at sweep granularity. For the product Epanechnikov
// kernel the mesh is served by the fast-sum-updating sweep (see
// sweep.go); other kernels evaluate the naive objective per cell. Both
// visit cells in the same odometer order (dimension 0 fastest) with a
// strict first-minimum comparison, so ties resolve to the lowest-index
// cell either way.
func MeshSearchContext(ctx context.Context, s Sample, grids [][]float64, k kernel.Kind) (Result, error) {
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	if err := validateGrids(s, grids); err != nil {
		return Result{}, err
	}
	if k == kernel.Epanechnikov {
		return meshSweep(ctx, s, grids)
	}
	return meshNaive(ctx, s, grids, k)
}

// meshNaive is the per-cell fallback for kernels without a prefix
// decomposition. Every cell evaluates the full CVScore oracle.
func meshNaive(ctx context.Context, s Sample, grids [][]float64, k kernel.Kind) (Result, error) {
	d := s.Dim()
	idx := make([]int, d)
	h := make([]float64, d)
	best := Result{CV: math.Inf(1)}
	for {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		for j := range h {
			h[j] = grids[j][idx[j]]
		}
		cv := CVScore(s, h, k)
		best.Evals++
		if cv < best.CV {
			best.CV = cv
			best.H = append(best.H[:0], h...)
		}
		// Odometer increment, dimension 0 fastest.
		j := 0
		for ; j < d; j++ {
			idx[j]++
			if idx[j] < len(grids[j]) {
				break
			}
			idx[j] = 0
		}
		if j == d {
			break
		}
	}
	if best.H == nil {
		return Result{}, errors.New("mvreg: mesh search found no finite CV")
	}
	return best, nil
}

// CoordinateDescent optimises one bandwidth at a time with the weighted
// fast-sum-updating sweep, holding the others fixed, cycling until a
// full pass leaves the selection unchanged or maxSweeps passes have run.
// The start point is the midpoint of each grid. Epanechnikov only (the
// sweep's prefix decomposition is kernel-specific). The result is a
// coordinate-wise optimum of the mesh: no single-coordinate move
// improves it.
func CoordinateDescent(s Sample, grids [][]float64, maxSweeps int) (Result, error) {
	return CoordinateDescentContext(context.Background(), s, grids, maxSweeps)
}

// CoordinateDescentContext is CoordinateDescent with cooperative
// cancellation, polled once per dimension pass and at sweep granularity
// inside each pass.
func CoordinateDescentContext(ctx context.Context, s Sample, grids [][]float64, maxSweeps int) (Result, error) {
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	if err := validateGrids(s, grids); err != nil {
		return Result{}, err
	}
	if maxSweeps <= 0 {
		maxSweeps = 10
	}
	n, d := len(s.X), s.Dim()
	maxK := 0
	for _, g := range grids {
		if len(g) > maxK {
			maxK = len(g)
		}
	}
	ws := AcquireWorkspace(n, d, maxK)
	defer ws.Release()
	ws.buildAxisOrders(s)
	idx := make([]int, d)
	for j := range idx {
		idx[j] = len(grids[j]) / 2
	}
	h := make([]float64, d)
	res := Result{}
	for sweep := 0; sweep < maxSweeps; sweep++ {
		changed := false
		res.Sweeps++
		for j := 0; j < d; j++ {
			for q := range h {
				h[q] = grids[q][idx[q]]
			}
			scores, err := ws.sweepDimension(ctx, s, h, j, grids[j])
			if err != nil {
				return Result{}, err
			}
			res.Evals += len(grids[j])
			bestQ, bestCV := 0, math.Inf(1)
			for q, cv := range scores {
				if !math.IsNaN(cv) && cv < bestCV {
					bestQ, bestCV = q, cv
				}
			}
			if bestQ != idx[j] {
				idx[j] = bestQ
				changed = true
			}
			res.CV = bestCV
		}
		if !changed {
			break
		}
	}
	res.H = make([]float64, d)
	for j := range res.H {
		res.H[j] = grids[j][idx[j]]
	}
	return res, nil
}
