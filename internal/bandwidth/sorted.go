package bandwidth

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/kernel"
)

// The sorted incremental grid search (paper §III). For each observation
// i the neighbours are taken nearest first; because the candidate
// bandwidths are ascending and the kernel has compact support, the kernel
// sums for bandwidth h_{j+1} are the sums for h_j plus the newly in-range
// terms. One observation therefore costs O(n + k) for the sweep, and the
// whole grid search O(n·(n + k)) instead of the naive O(k·n²).
//
// The paper sorts each observation's distances |X_i − X_l| on its own
// (Program 3, kept as core.SortedSequential). In one dimension a single
// global sort of X already gives every observation its neighbours in
// that order: merge the runs to its left and right (twoPointerFill).
// Every float64 prefix sweep here — sorted, sorted-parallel, ll-sorted,
// AICc, and twopointer's Triangular kernel — takes its neighbours from
// that one enumeration (neighbours.rows). Observations are still visited
// in their original order, so each score adds its per-observation terms
// in the same order as a per-observation sort would.

// Stability selects the summation arithmetic of the sorted sweeps. The
// incremental prefix sums are exactly the "fast sum updating" scheme
// whose cancellation error Langrené & Warin analyse: a large common
// offset in Y makes Σy and Σy·d² carry magnitudes far above the residual
// scale, and plain running sums lose O(n·ε) of it. Compensated
// (Neumaier) accumulation bounds that loss at O(ε) per sum for a few
// extra flops in a loop the neighbour merge already dominates.
type Stability int

const (
	// Compensated uses Neumaier summation for the running prefix sums.
	// The default for every entry point.
	Compensated Stability = iota
	// Uncompensated reproduces the seed's plain running sums. Kept for
	// the stability battery and the overhead benchmark (ablation only).
	Uncompensated
)

// String returns the stability-mode name.
func (s Stability) String() string {
	if s == Uncompensated {
		return "uncompensated"
	}
	return "compensated"
}

// neighbours is the sample sorted once by X, with pos[i] the sorted
// position of observation i.
type neighbours struct {
	xs, ys []float64
	pos    []int
}

// twoPointerFill writes the neighbours of sorted position p nearest
// first, by merging the left and right runs of the sorted sample: the
// signed distance δ = X_l − X_p into delta and Y_l into yv. Neighbours
// at equal distance come left-run-first. len(delta) and len(yv) must be
// len(xs)−1. IEEE negation is exact, so |δ| is bit for bit the
// |X_p − X_l| a per-observation sort would compute.
func twoPointerFill(xs, ys []float64, p int, delta, yv []float64) {
	xp := xs[p]
	l, r := p-1, p+1
	n := len(xs)
	w := 0
	for l >= 0 && r < n {
		dl := xp - xs[l]
		dr := xs[r] - xp
		if dl <= dr {
			delta[w], yv[w] = -dl, ys[l]
			l--
		} else {
			delta[w], yv[w] = dr, ys[r]
			r++
		}
		w++
	}
	for ; l >= 0; l-- {
		delta[w], yv[w] = xs[l]-xp, ys[l]
		w++
	}
	for ; r < n; r++ {
		delta[w], yv[w] = xs[r]-xp, ys[r]
		w++
	}
}

// rows calls row for observations first, first+step, … in that order,
// with the observation's Y and its neighbours nearest first (see
// twoPointerFill), using ws's neighbour buffers. With self set the
// observation itself leads the list at δ = 0, as the full-sample fit of
// AICc needs; otherwise it is left out. ctx is polled before each
// observation, one O(n) merge plus the row's O(n + k) sweep apart.
func (nb neighbours) rows(ctx context.Context, first, step int, self bool, ws *Workspace, row func(yi float64, delta, yv []float64)) error {
	n := len(nb.xs)
	off := b2i(self)
	delta, yv := ws.delta[:n-1+off], ws.yv[:n-1+off]
	for i := first; i < n; i += step {
		if err := ctx.Err(); err != nil {
			return err
		}
		p := nb.pos[i]
		// The self entry; the merge overwrites it when off is 0.
		delta[0], yv[0] = 0, nb.ys[p]
		twoPointerFill(nb.xs, nb.ys, p, delta[off:], yv[off:])
		row(nb.ys[p], delta, yv)
	}
	return nil
}

// kernelSums writes, for one observation and every bandwidth h_j of the
// ascending grid, the Nadaraya–Watson numerator num[j] = Σ K(δ/h)·Y_l
// and denominator den[j] = Σ K(δ/h) over its neighbours (delta, yv),
// which must come nearest first. A kernel's normalising constant may be
// dropped where it cancels in num/den. comp selects Neumaier
// accumulation for the running prefix sums (windowAcc).
type kernelSums func(delta, yv, grid []float64, comp bool, num, den []float64)

// epanechnikovSums is kernelSums for the Epanechnikov kernel, whose sums
// factor as
//
//	num(h) = 0.75·(Σ y  −  Σ y·d² / h²)
//	den(h) = 0.75·(cnt −  Σ d²   / h²)
//
// over in-range terms (|d| ≤ h), so only three prefix sums and a count
// are carried across bandwidths.
func epanechnikovSums(delta, yv, grid []float64, comp bool, num, den []float64) {
	var sy, syd2, sd2 windowAcc
	cnt, ptr := 0, 0
	for j, h := range grid {
		for ptr < len(delta) && math.Abs(delta[ptr]) <= h {
			d2 := delta[ptr] * delta[ptr]
			sy, syd2, sd2 = sy.add(yv[ptr], comp), syd2.add(yv[ptr]*d2, comp), sd2.add(d2, comp)
			cnt++
			ptr++
		}
		h2 := h * h
		num[j] = 0.75 * (sy.sum() - syd2.sum()/h2)
		den[j] = 0.75 * (float64(cnt) - sd2.sum()/h2)
	}
}

// uniformSums is kernelSums for the Uniform kernel, K(u) = 0.5·1{|u|≤1}:
// Σy and the count, the 0.5 dropped.
func uniformSums(delta, yv, grid []float64, comp bool, num, den []float64) {
	var sy windowAcc
	cnt, ptr := 0, 0
	for j, h := range grid {
		for ptr < len(delta) && math.Abs(delta[ptr]) <= h {
			sy = sy.add(yv[ptr], comp)
			cnt++
			ptr++
		}
		num[j], den[j] = sy.sum(), float64(cnt)
	}
}

// triangularSums is kernelSums for the Triangular kernel, K(u) = 1−|u|
// on |u| ≤ 1: num(h) = Σy − Σ(y·|d|)/h and den(h) = cnt − Σ|d|/h.
func triangularSums(delta, yv, grid []float64, comp bool, num, den []float64) {
	var sy, syad, sad windowAcc
	cnt, ptr := 0, 0
	for j, h := range grid {
		for ptr < len(delta) && math.Abs(delta[ptr]) <= h {
			ad := math.Abs(delta[ptr])
			sy, syad, sad = sy.add(yv[ptr], comp), syad.add(yv[ptr]*ad, comp), sad.add(ad, comp)
			cnt++
			ptr++
		}
		num[j] = sy.sum() - syad.sum()/h
		den[j] = float64(cnt) - sad.sum()/h
	}
}

// kernelSumsFor returns the prefix sums of a compact kernel, or an error
// for kernels the sorted method does not support (the Gaussian has
// unbounded support: no sort-based incremental structure exists, as the
// paper's footnote 1 notes — though it also needs no sort at all).
func kernelSumsFor(k kernel.Kind) (kernelSums, error) {
	switch k {
	case kernel.Epanechnikov:
		return epanechnikovSums, nil
	case kernel.Uniform:
		return uniformSums, nil
	case kernel.Triangular:
		return triangularSums, nil
	}
	return nil, fmt.Errorf("bandwidth: sorted grid search requires a compact prefix-decomposable kernel, %v is not supported", k)
}

// sortedRows adds the squared leave-one-out residuals of observations
// first, first+step, … into scores, in that order. Observations without
// a positive leave-one-out denominator add nothing (the M(X_i) mask).
// The per-observation score accumulation stays plain: squared residuals
// are non-negative, so that sum cannot cancel.
func sortedRows(ctx context.Context, nb neighbours, grid []float64, sums kernelSums, comp bool, first, step int, ws *Workspace, scores []float64) error {
	num, den := ws.sumBufs(len(grid))
	return nb.rows(ctx, first, step, false, ws, func(yi float64, delta, yv []float64) {
		sums(delta, yv, grid, comp, num, den)
		for j := range num {
			if den[j] > 0 {
				r := yi - num[j]/den[j]
				scores[j] += r * r
			}
		}
	})
}

// SortedGridSearchKernelStabilityContext runs the paper's sorted
// incremental grid search in double precision — the algorithm of
// Program 3 without the float32 narrowing, its neighbours taken from one
// global sort — for the compact kernels that admit the prefix-sum
// decomposition (Epanechnikov, Uniform, Triangular: the set the paper's
// footnote 1 identifies). The grid must be ascending (Grid guarantees it
// via Validate). st selects the summation mode of the running prefix
// sums: Uncompensated reproduces the seed's plain sums, and every public
// entry point defaults to Compensated.
//
// ctx is polled once per observation (each costs an O(n) merge plus an
// O(n + k) sweep, so a cancelled caller is noticed within one row's
// work). Cancellation returns ctx.Err() and a zero Result — never a
// partial selection — and the check only early-exits, so a completed
// search is bit-identical whatever ctx is passed.
func SortedGridSearchKernelStabilityContext(ctx context.Context, x, y []float64, g Grid, k kernel.Kind, st Stability) (Result, error) {
	ws := AcquireWorkspace(len(x), g.Len())
	defer ws.Release()
	r, err := sortedInto(ctx, x, y, g, k, st, ws)
	if err != nil {
		return Result{}, err
	}
	r.Scores = append([]float64(nil), r.Scores...)
	return r, nil
}

// sortedInto runs the sorted search in ws, on the calling goroutine.
// Result.Scores aliases ws.
func sortedInto(ctx context.Context, x, y []float64, g Grid, k kernel.Kind, st Stability, ws *Workspace) (Result, error) {
	if err := validateSample(x, y); err != nil {
		return Result{}, err
	}
	if err := g.Validate(); err != nil {
		return Result{}, err
	}
	sums, err := kernelSumsFor(k)
	if err != nil {
		return Result{}, err
	}
	scores := ws.zeroScores(g.Len())
	if err := sortedRows(ctx, ws.neighbours(x, y), g.H, sums, st == Compensated, 0, 1, ws, scores); err != nil {
		return Result{}, err
	}
	for j := range scores {
		scores[j] /= float64(len(x))
	}
	return Best(g, scores), nil
}

// sortedStripes is the number of observation stripes
// SortedGridSearchParallelStabilityContext scores. Stripe s holds
// observations s, s+sortedStripes, …; strided stripes balance the load
// when sample density varies across the X range.
const sortedStripes = 64

// SortedGridSearchParallelStabilityContext is the goroutine-parallel
// version of SortedGridSearchKernelStabilityContext for the
// Epanechnikov kernel: up to workers goroutines claim observation
// stripes from one counter, each stripe is scored in index order into
// its own partial vector (the analogue of the device's per-thread
// work), and the partials are added in stripe order — the same
// map/reduce structure as the CUDA program, realised with host threads.
// The stripe count is fixed, so the result is bit-identical for any
// worker count and interleaving; workers <= 0 selects GOMAXPROCS. st
// selects the sweeps' summation mode.
//
// Every worker polls ctx once per observation and bails out of its
// stripe, so a cancelled caller frees all workers within one row's work
// each. The reduction is skipped on cancellation and ctx.Err() is
// returned with a zero Result.
//
//kernvet:bitexact
func SortedGridSearchParallelStabilityContext(ctx context.Context, x, y []float64, g Grid, workers int, st Stability) (Result, error) {
	if err := validateSample(x, y); err != nil {
		return Result{}, err
	}
	if err := g.Validate(); err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, sortedStripes)
	n, k := len(x), g.Len()
	ws := AcquireWorkspace(n, k)
	defer ws.Release()
	nb := ws.neighbours(x, y)
	comp := st == Compensated
	partial := make([]float64, sortedStripes*k)
	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wws := AcquireWorkspace(n, k)
			defer wws.Release()
			for s := int(next.Add(1) - 1); s < sortedStripes; s = int(next.Add(1) - 1) {
				if err := sortedRows(ctx, nb, g.H, epanechnikovSums, comp, s, sortedStripes, wws, partial[s*k:(s+1)*k]); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return Result{}, err
		}
	}
	scores := make([]float64, k)
	for s := 0; s < sortedStripes; s++ {
		for j := range scores {
			scores[j] += partial[s*k+j]
		}
	}
	for j := range scores {
		scores[j] /= float64(n)
	}
	return Best(g, scores), nil
}
