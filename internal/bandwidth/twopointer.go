package bandwidth

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/kernel"
)

// The two-pointer sorted sweep. The paper's host algorithm (§III,
// Program 3) sorts each observation's neighbour distances independently,
// O(n log n) per observation and O(n² log n) total. In one dimension a
// single global sort of X is enough: every in-range neighbour set
// {l ≠ i : |X_i − X_l| ≤ h} is then a contiguous window of sorted
// positions, and as i walks the sorted sample both window edges only
// move right. This is the fixed-bandwidth form of Langrené & Warin's
// fast sum updating (arXiv:1712.00993).
//
// For the Epanechnikov and Uniform kernels each candidate h is scored by
// its own O(n) window sweep (windowScore), so a whole grid costs
// O(n log n + k·n). The leave-one-out sums are polynomials in x_i over
// the window, read from the window moments Σy, Σy·u, Σy·u², Σu, Σu²
// with u = X_l − a taken about an anchor a. Expanding about a global
// origin cancels catastrophically when X carries a large offset; a
// single origin slid every step does too, on small windows. The sweep
// therefore keeps the window as a left part [lo, p) stored as suffix
// sums and a right part [p, hi) stored as prefix sums, both about the
// same anchor, so a window total is one suffix plus one prefix. When lo
// reaches p the structure flips: a = x_i, p = hi, and both parts are
// rebuilt. Every element enters at most one right part and one left
// part per candidate, nothing is ever subtracted from a sum, and
// |x_i − a| ≤ 2h, so the expansion's terms stay within a small factor
// of the result.
//
// The engine costs a few tens of ns per (observation, candidate) on a
// 2-core Xeon — several times the merge's cost per neighbour pair — so
// on one core it loses to the old per-observation merge where k ≳ n/2
// and the grid is not sharded (EXPERIMENTS.md). It is used for every k
// regardless: a shard of the grid sees a smaller k than the whole grid,
// and the engine choice must not depend on it, or sharded and
// single-node answers would stop being bit-identical.
//
// The window edges use the same float comparisons as the merge
// enumeration below (X_r − X_i ≤ h on the right, X_i − X_l ≤ h on the
// left), so the in-range set and boundary ties are unchanged. Each
// candidate's score depends only on (data, h): that is the bit-identity
// contract grid sharding relies on, and it holds by construction.
//
// The same independence lets one selection use every core, the host
// analogue of the paper's one-device-thread-per-observation scoring
// (§III): after the global sort, the allocating entry points share the
// grid between the calling goroutine and up to GOMAXPROCS − 1 helpers,
// each claiming the next candidate from one atomic counter
// (windowScores). Which goroutine scores a candidate changes nothing in
// its arithmetic, so the split is bit-identical to the sequential
// TwoPointerGridSearchInto for any worker count and interleaving.
//
// The Triangular kernel (|d| has a sign, so it needs half-windows) and
// the local-linear estimator still merge the left and right neighbour
// runs of each observation in O(n) (twoPointerFill) and feed the
// per-observation sweeps of sorted.go: O(n log n + n·(n + k)). The merge
// emits neighbours at equal distance left-run-first; the prefix
// multiset at every bandwidth boundary matches the per-observation
// QuickSort's (FuzzTwoPointerOrder pins this).

// twoPointerFill writes the neighbours of sorted position i into absd
// and yv, nearest-first, by merging the left and right runs of the
// globally sorted sample. len(absd) and len(yv) must be len(xs)-1.
func twoPointerFill(xs, ys []float64, i int, absd, yv []float64) {
	xi := xs[i]
	l, r := i-1, i+1
	n := len(xs)
	w := 0
	for l >= 0 && r < n {
		dl := xi - xs[l]
		dr := xs[r] - xi
		if dl <= dr {
			absd[w], yv[w] = dl, ys[l]
			l--
		} else {
			absd[w], yv[w] = dr, ys[r]
			r++
		}
		w++
	}
	for ; l >= 0; l-- {
		absd[w], yv[w] = xi-xs[l], ys[l]
		w++
	}
	for ; r < n; r++ {
		absd[w], yv[w] = xs[r]-xi, ys[r]
		w++
	}
}

// twoPointerFillLL is twoPointerFill with the signed distance
// δ = X_l − X_i emitted alongside, for the local-linear sweep. IEEE
// negation is exact, so −(X_i − X_l) for the left run is bit-identical
// to the X_l − X_i the argsort path computes.
func twoPointerFillLL(xs, ys []float64, i int, absd, delta, yv []float64) {
	xi := xs[i]
	l, r := i-1, i+1
	n := len(xs)
	w := 0
	for l >= 0 && r < n {
		dl := xi - xs[l]
		dr := xs[r] - xi
		if dl <= dr {
			absd[w], delta[w], yv[w] = dl, -dl, ys[l]
			l--
		} else {
			absd[w], delta[w], yv[w] = dr, dr, ys[r]
			r++
		}
		w++
	}
	for ; l >= 0; l-- {
		d := xi - xs[l]
		absd[w], delta[w], yv[w] = d, -d, ys[l]
		w++
	}
	for ; r < n; r++ {
		d := xs[r] - xi
		absd[w], delta[w], yv[w] = d, d, ys[r]
		w++
	}
}

// TwoPointerGridSearchKernelStabilityContext runs the two-pointer sweep
// in double precision for the compact kernels that admit the prefix-sum
// decomposition (Epanechnikov, Uniform, Triangular): one global sort,
// then for Epanechnikov and Uniform an O(n) window sweep per candidate
// bandwidth, the candidates shared across up to GOMAXPROCS goroutines.
// st selects the summation mode of the window moments and prefix sums.
// It is TwoPointerGridSearchParallelStabilityContext with workers = 0,
// and polls ctx as that function does.
func TwoPointerGridSearchKernelStabilityContext(ctx context.Context, x, y []float64, g Grid, k kernel.Kind, st Stability) (Result, error) {
	return TwoPointerGridSearchParallelStabilityContext(ctx, x, y, g, k, 0, st)
}

// TwoPointerGridSearchParallelStabilityContext is the search behind
// every allocating two-pointer entry point: the two-pointer sweep with
// a cap on the goroutines that share the window sweep's grid
// (windowScores). workers <= 0 selects runtime.GOMAXPROCS(0) at call
// time, and the result is bit-identical for any cap. The Triangular
// kernel runs the sequential merge and ignores workers.
//
// Each goroutine polls ctx before every candidate it claims, O(n) work
// apart; the Triangular merge polls once per observation, also O(n)
// work. Cancellation returns ctx.Err() and a zero Result — never a
// partial selection.
//
//kernvet:bitexact
func TwoPointerGridSearchParallelStabilityContext(ctx context.Context, x, y []float64, g Grid, k kernel.Kind, workers int, st Stability) (Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ws := AcquireWorkspace(len(x), g.Len())
	defer ws.Release()
	r, err := twoPointerInto(ctx, x, y, g, k, st, ws, workers)
	if err != nil {
		return Result{}, err
	}
	// Copy the scores out of the pooled accumulator so Result.Scores
	// stays valid after Release.
	r.Scores = append([]float64(nil), r.Scores...)
	return r, nil
}

// TwoPointerGridSearchInto is the zero-allocation entry point: every
// scratch slice, including the score vector, lives in ws, so a caller
// that acquires ws once (or pools it) performs no heap allocation per
// selection. It scores the grid on the calling goroutine alone.
// Result.Scores aliases ws and is valid only until ws.Release();
// callers that keep scores must copy them first.
func TwoPointerGridSearchInto(ctx context.Context, x, y []float64, g Grid, k kernel.Kind, st Stability, ws *Workspace) (Result, error) {
	return twoPointerInto(ctx, x, y, g, k, st, ws, 1)
}

// twoPointerInto runs the two-pointer search in ws, scoring the window
// kernels' candidates on up to workers goroutines (windowScores).
func twoPointerInto(ctx context.Context, x, y []float64, g Grid, k kernel.Kind, st Stability, ws *Workspace, workers int) (Result, error) {
	if err := validateSample(x, y); err != nil {
		return Result{}, err
	}
	if err := g.Validate(); err != nil {
		return Result{}, err
	}
	// sweepFunc also rejects the kernels without compact support.
	sweep, err := sweepFunc(k, st)
	if err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	n := len(x)
	xs, ys := ws.sortSample(x, y)
	scores := ws.zeroScores(g.Len())
	if k != kernel.Triangular {
		if err := windowScores(ctx, xs, ys, g.H, k == kernel.Uniform, st == Compensated, ws.windowMoments(n), scores, workers); err != nil {
			return Result{}, err
		}
		return Best(g, scores), nil
	}
	absd := ws.absd[:n-1]
	yv := ws.yv[:n-1]
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		twoPointerFill(xs, ys, i, absd, yv)
		sweep(absd, yv, ys[i], g.H, scores)
	}
	for j := range scores {
		scores[j] /= float64(n)
	}
	return Best(g, scores), nil
}

// windowScores writes the CV score of every bandwidth in hs into the
// matching element of out. The calling goroutine, with the moment
// buffers m, and up to min(workers, len(hs)) − 1 helpers, each with
// its own pooled buffers, claim candidates from one shared counter, so
// a slow candidate never leaves another goroutine idle at the end, as
// a static split of the grid would. Each goroutine writes only the
// slots it claimed. Helper errors are kept by goroutine index and the
// first in index order is returned, once every helper has joined.
//
//kernvet:bitexact
func windowScores(ctx context.Context, xs, ys, hs []float64, uniform, comp bool, m windowMoments, out []float64, workers int) error {
	helpers := min(workers, len(hs)) - 1
	if helpers <= 0 {
		// Kept apart so that the counter stays on the stack:
		// TwoPointerGridSearchInto must not allocate.
		var next atomic.Int64
		return claimWindowScores(ctx, xs, ys, hs, uniform, comp, m, out, &next)
	}
	next := new(atomic.Int64)
	errs := make([]error, helpers+1)
	var wg sync.WaitGroup
	for w := 1; w <= helpers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			hws := AcquireWorkspace(len(xs), 0)
			defer hws.Release()
			errs[w] = claimWindowScores(ctx, xs, ys, hs, uniform, comp, hws.windowMoments(len(xs)), out, next)
		}(w)
	}
	errs[0] = claimWindowScores(ctx, xs, ys, hs, uniform, comp, m, out, next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// claimWindowScores scores candidates claimed from next until the grid
// is exhausted, polling ctx before each one.
func claimWindowScores(ctx context.Context, xs, ys, hs []float64, uniform, comp bool, m windowMoments, out []float64, next *atomic.Int64) error {
	for {
		j := int(next.Add(1) - 1)
		if j >= len(hs) {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		out[j] = windowScore(xs, ys, hs[j], uniform, comp, m) / float64(len(xs))
	}
}

// windowMoments are the window sweep's five moment buffers — Σy, Σy·u,
// Σy·u², Σu and Σu² with u = X − a about the current anchor a, in units
// of a power of two near h — each of length n+1 (see windowScore for
// the layout).
type windowMoments struct {
	y, yu, yu2, u, u2 []float64
}

// windowAcc is a running sum that is Neumaier-compensated when comp is
// set and plain otherwise (c then stays zero). The rounding error of
// each addition comes from Knuth's branch-free TwoSum, which yields the
// same exact error term as mathx.NeumaierAccumulator's magnitude
// branch. It is a value type so the sweep's accumulators stay in
// registers.
type windowAcc struct{ s, c float64 }

func (a windowAcc) add(x float64, comp bool) windowAcc {
	t := a.s + x
	if comp {
		xp := t - a.s
		a.c += (a.s - (t - xp)) + (x - xp)
	}
	a.s = t
	return a
}

func (a windowAcc) sum() float64 { return a.s + a.c }

// b2i is 1 for true and 0 for false; the compiler emits a SETcc, not a
// branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// windowScore returns Σ_i r_i², the sum of squared leave-one-out
// residuals over the sorted sample (xs, ys) at bandwidth h, for the
// Epanechnikov kernel, or the Uniform kernel when uniform is set.
// Observations without a positive leave-one-out denominator contribute
// nothing (the M(X_i) mask). The result depends only on (xs, ys, h,
// uniform, comp): no state crosses candidates.
//
// The window [lo, hi) of observation i is split at p. One buffer per
// moment, m, holds suffix sums m[j] = Σ_{l ∈ [j, p)} for j < p, zero at
// p, and prefix sums m[j] = Σ_{l ∈ [p, j)} for j > p, so the window
// total is m[lo] + m[hi]. A segment is the run of observations that
// share one anchor a and split p: it starts where lo reaches p and ends
// before the first i with x_i − x_{p−1} > h. Both halves are built once
// per segment, so each observation is summed at most twice per
// candidate.
//
//kernvet:bitexact
func windowScore(xs, ys []float64, h float64, uniform, comp bool, m windowMoments) float64 {
	n := len(xs)
	// The moments take distances in units of 2^e, the power of two
	// with h = f·2^e and f ∈ [0.5, 1): the scaling is exact, and h² = f²
	// cannot overflow or underflow however large or small h is.
	f, e := math.Frexp(h)
	scale := math.Ldexp(1, -e)
	h2 := f * f
	lo, hi := 0, 0
	var score windowAcc
	for i := 0; i < n; {
		// Open a segment at i, anchored at a = x_i with the whole
		// window to the left of p. The bounds lo ≤ i < hi hold by
		// themselves for finite X; they are enforced so that a NaN or
		// ±Inf in X yields NaN scores, not an index out of range.
		a := xs[i]
		for lo < i && a-xs[lo] > h {
			lo++
		}
		hi = max(hi, i+1)
		for hi < n && xs[hi]-a <= h {
			hi++
		}
		p := hi
		end := i + 1
		for end < n && !(xs[end]-xs[p-1] > h) {
			end++
		}
		hiEnd := p
		for hiEnd < n && xs[hiEnd]-xs[end-1] <= h {
			hiEnd++
		}
		var sy, syu, syu2, su, su2 windowAcc
		for j := p - 1; j >= lo; j-- {
			y, u := ys[j], (xs[j]-a)*scale
			yu := y * u
			sy, syu, syu2 = sy.add(y, comp), syu.add(yu, comp), syu2.add(yu*u, comp)
			su, su2 = su.add(u, comp), su2.add(u*u, comp)
			m.y[j], m.yu[j], m.yu2[j], m.u[j], m.u2[j] = sy.sum(), syu.sum(), syu2.sum(), su.sum(), su2.sum()
		}
		m.y[p], m.yu[p], m.yu2[p], m.u[p], m.u2[p] = 0, 0, 0, 0, 0
		sy, syu, syu2, su, su2 = windowAcc{}, windowAcc{}, windowAcc{}, windowAcc{}, windowAcc{}
		for j := p; j < hiEnd; j++ {
			y, u := ys[j], (xs[j]-a)*scale
			yu := y * u
			sy, syu, syu2 = sy.add(y, comp), syu.add(yu, comp), syu2.add(yu*u, comp)
			su, su2 = su.add(u, comp), su2.add(u*u, comp)
			m.y[j+1], m.yu[j+1], m.yu2[j+1], m.u[j+1], m.u2[j+1] = sy.sum(), syu.sum(), syu2.sum(), su.sum(), su2.sum()
		}
		for ; i < end; i++ {
			xi := xs[i]
			// Both edges usually move by 0–3 places per observation.
			// Counting the first four tests without branching avoids a
			// mispredicted loop exit on nearly every observation; the
			// loops finish the rare longer moves.
			last := n - 1
			dlo := b2i(xi-xs[lo] > h) + b2i(xi-xs[min(lo+1, last)] > h) +
				b2i(xi-xs[min(lo+2, last)] > h) + b2i(xi-xs[min(lo+3, last)] > h)
			lo = min(lo+dlo, i)
			for lo < i && xi-xs[lo] > h {
				lo++
			}
			dhi := b2i(xs[min(hi, last)]-xi <= h) + b2i(xs[min(hi+1, last)]-xi <= h) +
				b2i(xs[min(hi+2, last)]-xi <= h) + b2i(xs[min(hi+3, last)]-xi <= h)
			hi += min(dhi, hiEnd-hi)
			for hi < hiEnd && xs[hi]-xi <= h {
				hi++
			}
			// Window totals over [lo, hi), self term included: at d = 0
			// it adds nothing to Σy·d² or Σd², so only the count and Σy
			// lose it.
			yi := ys[i]
			syAll := m.y[lo] + m.y[hi]
			syLOO := windowAcc{s: m.y[lo]}.add(m.y[hi], comp).add(-yi, comp).sum()
			cnt := float64(hi - lo - 1)
			if uniform {
				if cnt > 0 {
					r := yi - syLOO/cnt
					score = score.add(r*r, comp)
				}
				continue
			}
			// d = u − c with c = x_i − a, so Σw·d² = Σw·u² − c·(2·Σw·u − c·Σw).
			c := (xi - a) * scale
			syd2 := (m.yu2[lo] + m.yu2[hi]) - c*(2*(m.yu[lo]+m.yu[hi])-c*syAll)
			sd2 := (m.u2[lo] + m.u2[hi]) - c*(2*(m.u[lo]+m.u[hi])-c*float64(hi-lo))
			// num/den of the per-observation sweep, both scaled by h²/0.75
			// to leave one division. When every neighbour sits at d = h
			// on a lattice, cnt·h² and Σd² are equal and exact, so the
			// denominator is exactly zero, as it is there.
			den := cnt*h2 - sd2
			if den > 0 {
				r := yi - (syLOO*h2-syd2)/den
				score = score.add(r*r, comp)
			}
		}
	}
	return score.sum()
}

// TwoPointerGridSearchLocalLinearStabilityContext runs the two-pointer
// sweep for the local-linear estimator with the Epanechnikov kernel —
// the "ll" analogue, feeding the nine-prefix-sum sweep of locallinear.go
// from the merged enumeration instead of a per-observation argsort. st
// selects the nine-sum sweep's summation mode. ctx is polled once per
// observation (an O(n) merge plus an O(n + k) sweep); cancellation
// returns ctx.Err() and a zero Result.
func TwoPointerGridSearchLocalLinearStabilityContext(ctx context.Context, x, y []float64, g Grid, st Stability) (Result, error) {
	if err := validateSample(x, y); err != nil {
		return Result{}, err
	}
	if err := g.Validate(); err != nil {
		return Result{}, err
	}
	sweep := localLinearSweepCompensated
	if st == Uncompensated {
		sweep = localLinearSweep
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	n := len(x)
	ws := AcquireWorkspace(n, g.Len())
	defer ws.Release()
	xs, ys := ws.sortSample(x, y)
	absd := ws.absd[:n-1]
	delta := ws.delta[:n-1]
	yv := ws.yv[:n-1]
	scores := ws.zeroScores(g.Len())
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		twoPointerFillLL(xs, ys, i, absd, delta, yv)
		sweep(absd, delta, yv, ys[i], g.H, scores)
	}
	out := append([]float64(nil), scores...)
	for j := range out {
		out[j] /= float64(n)
	}
	return Best(g, out), nil
}
