// The multivariate fast-sum-updating sweep (Langrené & Warin,
// arXiv:1712.00993), the d-dimensional sibling of the univariate
// two-pointer family in internal/bandwidth:
//
//   - one co-sort per axis gives, for every observation, its neighbours
//     in ascending axis distance as the merge of a left and a right run
//     in the sorted order — no per-observation sort;
//
//   - the other dimensions' product-kernel weights ride along as
//     observation weights w̃_l, so the swept axis sees a weighted
//     univariate problem;
//
//   - the Epanechnikov prefix decomposition then serves every candidate
//     bandwidth of the swept axis from four compensated prefix sums:
//
//     num(h) = 0.75·(Σ w̃y − Σ w̃y·d²/h²),  den(h) = 0.75·(Σ w̃ − Σ w̃·d²/h²)
//
//     over neighbours with |d| ≤ h.
//
// MeshSearchContext sweeps dimension 0 (the odometer's fastest axis) so one
// merge per observation serves all k₀ cells of a mesh column, an
// O(k₀)-fold saving over the naive per-cell objective; CoordinateDescent
// sweeps each dimension in turn against its full candidate grid.
package mvreg

import (
	"context"
	"math"

	"repro/internal/mathx"
)

// ctxPollMask polls cancellation every 64 observations inside a sweep —
// frequent enough that a cancelled mesh group stops in microseconds,
// cheap enough to vanish against the merge work.
const ctxPollMask = 63

// meshSweep runs the fast-sum-updating mesh search for the product
// Epanechnikov kernel. Dimension 0 is swept; the remaining dimensions
// are enumerated by the same odometer order as meshNaive (dimension 1
// fastest among them), so cells are visited in the naive order and the
// strict first-minimum comparison reproduces its lowest-index
// tie-break.
func meshSweep(ctx context.Context, s Sample, grids [][]float64) (Result, error) {
	n, d := len(s.X), s.Dim()
	k0 := len(grids[0])
	maxH0 := grids[0][k0-1]
	ws := AcquireWorkspace(n, d, k0)
	defer ws.Release()
	ws.buildAxisOrder(s, 0)
	otherIdx := make([]int, d)
	h := make([]float64, d)
	best := Result{CV: math.Inf(1)}
	for {
		for j := 1; j < d; j++ {
			h[j] = grids[j][otherIdx[j]]
		}
		scores := ws.scores[:k0]
		zeroFloats(scores)
		for i := 0; i < n; i++ {
			if i&ctxPollMask == 0 {
				if err := ctx.Err(); err != nil {
					return Result{}, err
				}
			}
			ws.fillNeighbours(s, 0, h, i, maxH0)
			weightedEpanechnikovSweep(scores, ws.absd, ws.wy, ws.ww, s.Y[i], grids[0])
		}
		for q := range scores {
			cv := scores[q] / float64(n)
			best.Evals++
			if cv < best.CV {
				best.CV = cv
				h[0] = grids[0][q]
				best.H = append(best.H[:0], h...)
			}
		}
		// Advance the non-swept dimensions, dimension 1 fastest —
		// together with the ascending scan over grids[0] above this is
		// exactly meshNaive's odometer order.
		j := 1
		for ; j < d; j++ {
			otherIdx[j]++
			if otherIdx[j] < len(grids[j]) {
				break
			}
			otherIdx[j] = 0
		}
		if j >= d {
			break
		}
	}
	return best, nil
}

// sweepDimension computes CV for every candidate bandwidth of dimension
// dim with the other bandwidths fixed at h. One left/right-run merge per
// observation (stopping at the largest candidate) serves the whole grid.
// The workspace's axis orders must already be built.
func (ws *Workspace) sweepDimension(ctx context.Context, s Sample, h []float64, dim int, grid []float64) ([]float64, error) {
	n := len(s.X)
	maxH := grid[len(grid)-1]
	scores := ws.scores[:len(grid)]
	zeroFloats(scores)
	for i := 0; i < n; i++ {
		if i&ctxPollMask == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		ws.fillNeighbours(s, dim, h, i, maxH)
		weightedEpanechnikovSweep(scores, ws.absd, ws.wy, ws.ww, s.Y[i], grid)
	}
	for q := range scores {
		scores[q] /= float64(n)
	}
	return scores, nil
}

// sweepDimensionOnce is the standalone form for tests: it acquires a
// workspace, builds the axis orders, and returns a fresh scores slice.
func sweepDimensionOnce(s Sample, h []float64, dim int, grid []float64) []float64 {
	ws := AcquireWorkspace(len(s.X), s.Dim(), len(grid))
	defer ws.Release()
	ws.buildAxisOrders(s)
	scores, err := ws.sweepDimension(context.Background(), s, h, dim, grid)
	if err != nil {
		return nil
	}
	return append([]float64(nil), scores...)
}

// fillNeighbours writes observation i's in-range neighbours into the
// workspace buffers in ascending axis-dim distance: the merge of the
// left and right runs around i's slot in the axis order, cut off at
// maxH (beyond the largest candidate nothing can ever enter a window).
// Each emitted neighbour carries the other dimensions' product weight;
// zero-weight neighbours are dropped — they contribute nothing at any
// candidate.
func (ws *Workspace) fillNeighbours(s Sample, dim int, h []float64, i int, maxH float64) {
	ax := &ws.axes[dim]
	ws.absd = ws.absd[:0]
	ws.wy = ws.wy[:0]
	ws.ww = ws.ww[:0]
	p := ax.pos[i]
	vi := ax.val[p]
	xi := s.X[i]
	l, r := p-1, p+1
	n := len(ax.val)
	for l >= 0 || r < n {
		var dd float64
		var o int
		// Ties take the left run first, matching the univariate
		// two-pointer merge.
		if l >= 0 && (r >= n || vi-ax.val[l] <= ax.val[r]-vi) {
			dd, o = vi-ax.val[l], ax.idx[l]
			l--
		} else {
			dd, o = ax.val[r]-vi, ax.idx[r]
			r++
		}
		if dd >= maxH { // strict: weight at the boundary is exactly 0
			break
		}
		w := otherWeight(xi, s.X[o], h, dim)
		if w == 0 {
			continue
		}
		ws.absd = append(ws.absd, dd)
		ws.wy = append(ws.wy, w*s.Y[o])
		ws.ww = append(ws.ww, w)
	}
}

// otherWeight evaluates the product Epanechnikov kernel between rows xi
// and xl over every dimension except skip. The kernel is inlined — this
// is the sweep's innermost pairwise call, and the arithmetic matches
// kernel.Epanechnikov.Weight term for term so the sweep stays the
// bitwise image of the oracle's weights.
func otherWeight(xi, xl, h []float64, skip int) float64 {
	w := 1.0
	for j := range h {
		if j == skip {
			continue
		}
		u := (xi[j] - xl[j]) / h[j]
		if u < -1 || u > 1 {
			return 0
		}
		w *= 0.75 * (1 - u*u)
	}
	return w
}

// weightedEpanechnikovSweep advances the four compensated prefix sums
// across the ascending candidate grid and adds observation yi's squared
// leave-one-out residual to every candidate's score. Neighbours arrive
// sorted by distance, so each is absorbed exactly once. scores[q] is a
// per-element write through the loop index, not a running sum; the
// loop-carried state lives in the Neumaier accumulators.
//
// Absorption is strict (|d| < h): the Epanechnikov weight at the
// boundary is exactly 0, so excluding |d| = h is mathematically
// identical — but absorbing it would reconstruct that zero as the
// cancellation w̃ − (w̃·d²)/h², which is inexact once w̃·d² rounds
// (unlike the univariate sweep, whose unit weights keep d²/h² = 1
// exact) and can leave a tiny spurious denominator behind a garbage
// fitted value.
func weightedEpanechnikovSweep(scores, absd, wy, ww []float64, yi float64, grid []float64) {
	var sy, syd2, sw, swd2 mathx.NeumaierAccumulator
	ptr := 0
	m := len(absd)
	for q, hc := range grid {
		for ptr < m && absd[ptr] < hc {
			d2 := absd[ptr] * absd[ptr]
			sy.Add(wy[ptr])
			syd2.Add(wy[ptr] * d2)
			sw.Add(ww[ptr])
			swd2.Add(ww[ptr] * d2)
			ptr++
		}
		h2 := hc * hc
		den := 0.75 * (sw.Sum() - swd2.Sum()/h2)
		if den > 0 {
			num := 0.75 * (sy.Sum() - syd2.Sum()/h2)
			r := yi - num/den
			scores[q] += r * r
		}
	}
}

// zeroFloats clears a pooled slice before reuse.
func zeroFloats(v []float64) {
	for i := range v {
		v[i] = 0
	}
}
