package bandwidth

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/kernel"
	"repro/internal/mathx"
	"repro/internal/sortx"
)

// The sorted incremental grid search (paper §III). For each observation i,
// the distances |X_i − X_l| are sorted once; because the candidate
// bandwidths are ascending and the kernel has compact support, the kernel
// sums for bandwidth h_{j+1} are the sums for h_j plus the newly in-range
// terms. One observation therefore costs O(n log n) for the sort plus
// O(n + k) for the sweep, and the whole grid search costs O(n² log n)
// instead of the naive O(k·n²).

// Stability selects the summation arithmetic of the sorted sweeps. The
// incremental prefix sums are exactly the "fast sum updating" scheme
// whose cancellation error Langrené & Warin analyse: a large common
// offset in Y makes Σy and Σy·d² carry magnitudes far above the residual
// scale, and plain running sums lose O(n·ε) of it. Compensated
// (Neumaier) accumulation bounds that loss at O(ε) per sum for a few
// extra flops in a loop the per-observation sort already dominates.
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

// epanechnikovSweep accumulates, for one observation, the squared
// leave-one-out residual for every grid bandwidth, adding each into
// scores. absd must be sorted ascending with yv the co-sorted Y values.
//
// For the Epanechnikov kernel the bandwidth-dependent sums factor as
//
//	num(h) = 0.75·(Σ y  −  Σ y·d² / h²)
//	den(h) = 0.75·(cnt −  Σ d²   / h²)
//
// over in-range terms (d ≤ h), so only three prefix sums and a count are
// carried across bandwidths.
//
//kernvet:ignore compsum -- plain-arithmetic ablation: golden.json and the conformance Exact class pin these exact sums; the stable path is epanechnikovSweepCompensated
func epanechnikovSweep(absd, yv []float64, yi float64, grid []float64, scores []float64) {
	var sy, syd2, sd2 float64
	cnt := 0
	ptr := 0
	m := len(absd)
	for j, h := range grid {
		for ptr < m && absd[ptr] <= h {
			d2 := absd[ptr] * absd[ptr]
			sy += yv[ptr]
			syd2 += yv[ptr] * d2
			sd2 += d2
			cnt++
			ptr++
		}
		h2 := h * h
		den := 0.75 * (float64(cnt) - sd2/h2)
		if den > 0 {
			num := 0.75 * (sy - syd2/h2)
			r := yi - num/den
			scores[j] += r * r
		}
	}
}

// uniformSweep is the Uniform-kernel variant: K(u) = 0.5·1{|u|≤1}, so only
// Σy and the count are needed.
//
//kernvet:ignore compsum -- plain-arithmetic ablation pinned by the conformance harness; the stable path is uniformSweepCompensated
func uniformSweep(absd, yv []float64, yi float64, grid []float64, scores []float64) {
	var sy float64
	cnt := 0
	ptr := 0
	m := len(absd)
	for j, h := range grid {
		for ptr < m && absd[ptr] <= h {
			sy += yv[ptr]
			cnt++
			ptr++
		}
		if cnt > 0 {
			r := yi - sy/float64(cnt)
			scores[j] += r * r
		}
	}
}

// triangularSweep is the Triangular-kernel variant: K(u) = 1−|u| on
// |u| ≤ 1, factoring as num(h) = Σy − Σ(y·|d|)/h, den(h) = cnt − Σ|d|/h.
//
//kernvet:ignore compsum -- plain-arithmetic ablation pinned by the conformance harness; the stable path is triangularSweepCompensated
func triangularSweep(absd, yv []float64, yi float64, grid []float64, scores []float64) {
	var sy, syad, sad float64
	cnt := 0
	ptr := 0
	m := len(absd)
	for j, h := range grid {
		for ptr < m && absd[ptr] <= h {
			sy += yv[ptr]
			syad += yv[ptr] * absd[ptr]
			sad += absd[ptr]
			cnt++
			ptr++
		}
		den := float64(cnt) - sad/h
		if den > 0 {
			num := sy - syad/h
			r := yi - num/den
			scores[j] += r * r
		}
	}
}

// epanechnikovSweepCompensated is epanechnikovSweep with Neumaier
// accumulation for the three prefix sums. The per-observation score
// accumulation (scores[j] += r²) stays plain: squared residuals are
// non-negative, so that sum cannot cancel and its O(n·ε₆₄) rounding is
// far inside the conformance tolerance.
func epanechnikovSweepCompensated(absd, yv []float64, yi float64, grid []float64, scores []float64) {
	var sy, syd2, sd2 mathx.NeumaierAccumulator
	cnt := 0
	ptr := 0
	m := len(absd)
	for j, h := range grid {
		for ptr < m && absd[ptr] <= h {
			d2 := absd[ptr] * absd[ptr]
			sy.Add(yv[ptr])
			syd2.Add(yv[ptr] * d2)
			sd2.Add(d2)
			cnt++
			ptr++
		}
		h2 := h * h
		den := 0.75 * (float64(cnt) - sd2.Sum()/h2)
		if den > 0 {
			num := 0.75 * (sy.Sum() - syd2.Sum()/h2)
			r := yi - num/den
			scores[j] += r * r
		}
	}
}

// uniformSweepCompensated is uniformSweep with a compensated Σy.
func uniformSweepCompensated(absd, yv []float64, yi float64, grid []float64, scores []float64) {
	var sy mathx.NeumaierAccumulator
	cnt := 0
	ptr := 0
	m := len(absd)
	for j, h := range grid {
		for ptr < m && absd[ptr] <= h {
			sy.Add(yv[ptr])
			cnt++
			ptr++
		}
		if cnt > 0 {
			r := yi - sy.Sum()/float64(cnt)
			scores[j] += r * r
		}
	}
}

// triangularSweepCompensated is triangularSweep with compensated prefix
// sums.
func triangularSweepCompensated(absd, yv []float64, yi float64, grid []float64, scores []float64) {
	var sy, syad, sad mathx.NeumaierAccumulator
	cnt := 0
	ptr := 0
	m := len(absd)
	for j, h := range grid {
		for ptr < m && absd[ptr] <= h {
			sy.Add(yv[ptr])
			syad.Add(yv[ptr] * absd[ptr])
			sad.Add(absd[ptr])
			cnt++
			ptr++
		}
		den := float64(cnt) - sad.Sum()/h
		if den > 0 {
			num := sy.Sum() - syad.Sum()/h
			r := yi - num/den
			scores[j] += r * r
		}
	}
}

// sweepFunc returns the per-observation sweep for a compact kernel under
// the requested stability mode, or an error for kernels the sorted method
// does not support (the Gaussian has unbounded support: no sort-based
// incremental structure exists, as the paper's footnote 1 notes — though
// it also needs no sort at all).
func sweepFunc(k kernel.Kind, st Stability) (func(absd, yv []float64, yi float64, grid, scores []float64), error) {
	switch k {
	case kernel.Epanechnikov:
		if st == Uncompensated {
			return epanechnikovSweep, nil
		}
		return epanechnikovSweepCompensated, nil
	case kernel.Uniform:
		if st == Uncompensated {
			return uniformSweep, nil
		}
		return uniformSweepCompensated, nil
	case kernel.Triangular:
		if st == Uncompensated {
			return triangularSweep, nil
		}
		return triangularSweepCompensated, nil
	default:
		return nil, fmt.Errorf("bandwidth: sorted grid search requires a compact prefix-decomposable kernel, %v is not supported", k)
	}
}

// sortedWorkspace holds the per-observation scratch arrays so the hot loop
// allocates nothing after warm-up.
type sortedWorkspace struct {
	absd []float64
	yv   []float64
}

func newSortedWorkspace(n int) *sortedWorkspace {
	return &sortedWorkspace{
		absd: make([]float64, 0, n),
		yv:   make([]float64, 0, n),
	}
}

// fill populates the workspace with |X_i − X_l| and Y_l for l ≠ i and
// sorts both by distance using the iterative QuickSort.
func (ws *sortedWorkspace) fill(x, y []float64, i int) {
	ws.absd = ws.absd[:0]
	ws.yv = ws.yv[:0]
	xi := x[i]
	for l, xl := range x {
		if l == i {
			continue
		}
		d := xi - xl
		if d < 0 {
			d = -d
		}
		ws.absd = append(ws.absd, d)
		ws.yv = append(ws.yv, y[l])
	}
	sortx.QuickSort64(ws.absd, ws.yv)
}

// SortedGridSearchKernelStabilityContext runs the paper's sorted
// incremental grid search in double precision — the algorithm of
// Program 3 without the float32 narrowing — for the compact kernels
// that admit the prefix-sum decomposition (Epanechnikov, Uniform,
// Triangular: the set the paper's footnote 1 identifies). The grid must
// be ascending (Grid guarantees it via Validate). st selects the
// summation mode of the running prefix sums: Uncompensated reproduces
// the seed's plain sums, and every public entry point defaults to
// Compensated.
//
// ctx is polled once per observation (each costs an O(n log n) sort
// plus an O(n + k) sweep, so a cancelled caller is noticed within one
// row's work). Cancellation returns ctx.Err() and a zero Result — never
// a partial selection — and the check only early-exits, so a completed
// search is bit-identical whatever ctx is passed.
func SortedGridSearchKernelStabilityContext(ctx context.Context, x, y []float64, g Grid, k kernel.Kind, st Stability) (Result, error) {
	if err := validateSample(x, y); err != nil {
		return Result{}, err
	}
	if err := g.Validate(); err != nil {
		return Result{}, err
	}
	sweep, err := sweepFunc(k, st)
	if err != nil {
		return Result{}, err
	}
	n := len(x)
	scores := make([]float64, g.Len())
	ws := newSortedWorkspace(n)
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		ws.fill(x, y, i)
		sweep(ws.absd, ws.yv, y[i], g.H, scores)
	}
	for j := range scores {
		scores[j] /= float64(n)
	}
	return Best(g, scores), nil
}

// SortedGridSearchParallelStabilityContext is the goroutine-parallel
// version of SortedGridSearchKernelStabilityContext for the
// Epanechnikov kernel: observations are partitioned across workers,
// each worker keeps a private score vector (the analogue of the
// device's per-thread work), and the vectors are reduced at the end —
// the same map/reduce structure as the CUDA program, realised with host
// threads. workers <= 0 selects GOMAXPROCS; the reduction order follows
// the worker count, so results are bit-identical only at equal counts.
// st selects the per-worker sweeps' summation mode.
//
// Every worker polls ctx once per observation and bails out of its
// stride, so a cancelled caller frees all workers within one row's work
// each. The reduction is skipped on cancellation and ctx.Err() is
// returned with a zero Result.
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
	sweep, err := sweepFunc(kernel.Epanechnikov, st)
	if err != nil {
		return Result{}, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := len(x)
	if workers > n {
		workers = n
	}
	k := g.Len()
	partial := make([][]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		partial[w] = make([]float64, k)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws := newSortedWorkspace(n)
			scores := partial[w]
			// Strided assignment balances load when sample density
			// varies across the X range.
			for i := w; i < n; i += workers {
				if ctx.Err() != nil {
					return
				}
				ws.fill(x, y, i)
				sweep(ws.absd, ws.yv, y[i], g.H, scores)
			}
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	scores := make([]float64, k)
	for _, p := range partial {
		for j, v := range p {
			scores[j] += v
		}
	}
	for j := range scores {
		scores[j] /= float64(n)
	}
	return Best(g, scores), nil
}
