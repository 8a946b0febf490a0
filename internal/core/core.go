// Package core implements the paper's primary contribution end to end:
//
//   - SortedSequential — the "Sequential C" program (Program 3): the sorted
//     incremental grid search in single precision, using the same iterative
//     QuickSort and accumulation order as the device code.
//   - SortedParallel — the native Go (goroutine) port of the same algorithm,
//     the form a downstream Go user would actually run on a multicore host.
//   - SelectGPU — the "CUDA on GPU" program (Program 4): the full device
//     pipeline (fill + per-thread sort + incremental bandwidth sweep +
//     index-switched residual matrix + Harris reductions) executed on the
//     simulated device of internal/gpu.
//   - PlanGPU — the same pipeline in planning mode: capacity accounting and
//     the analytic timing model, used to regenerate the paper's large-n run
//     times and its memory cliffs without hours of functional simulation.
package core

import (
	"context"
	"fmt"

	"repro/internal/bandwidth"
	"repro/internal/cuda"
	"repro/internal/mathx"
)

// Selector identifies one of the evaluated programs, matching the paper's
// numbering (§IV.C).
type Selector int

const (
	// RacineHayfield is Program 1: numerical optimisation over the naive
	// CV objective, as the R np package does. Implemented in
	// internal/baselines.
	RacineHayfield Selector = iota + 1
	// MulticoreR is Program 2: the multicore numerical-optimisation
	// selector. Implemented in internal/baselines.
	MulticoreR
	// SequentialC is Program 3: the single-precision sorted grid search.
	SequentialC
	// CUDAOnGPU is Program 4: the device pipeline on the simulated GPU.
	CUDAOnGPU
)

// String returns the paper's name for the program.
func (s Selector) String() string {
	switch s {
	case RacineHayfield:
		return "Racine & Hayfield"
	case MulticoreR:
		return "Multicore R"
	case SequentialC:
		return "Sequential C"
	case CUDAOnGPU:
		return "CUDA on GPU"
	default:
		return fmt.Sprintf("core.Selector(%d)", int(s))
	}
}

// SortedSequential runs Program 3: the paper's sorted incremental grid
// search with the Epanechnikov kernel in single precision. It mirrors the
// device program exactly — rows include the self observation and the
// leave-one-out correction subtracts it afterwards, and the per-row sort
// is the same iterative QuickSort — so that, as in the paper's §IV.C
// correctness protocol, the sequential and device programs can be checked
// against each other for identical per-observation residuals.
//
// The prefix sums and the cross-observation score accumulation use
// Neumaier compensation; SortedSequentialUncompensatedContext preserves the
// paper's plain float32 accumulation for ablation and agreement tests.
func SortedSequential(x, y []float64, g bandwidth.Grid) (bandwidth.Result, error) {
	return SortedSequentialContext(context.Background(), x, y, g)
}

// SortedSequentialContext is SortedSequential with cooperative
// cancellation, polled once per observation (one row's fill + sort +
// sweep). Cancellation returns ctx.Err() and a zero Result; the check
// only early-exits, leaving the float32 arithmetic of a completed run
// bit-identical.
func SortedSequentialContext(ctx context.Context, x, y []float64, g bandwidth.Grid) (bandwidth.Result, error) {
	return sortedSequential(ctx, x, y, g, false)
}

// SortedSequentialUncompensatedContext runs Program 3 with the paper's
// original plain float32 running sums (no compensation). Kept so the
// stability battery can measure how much error compensation removes, and
// so agreement tests can still reproduce the exact arithmetic of the
// paper's C program. It polls ctx like SortedSequentialContext.
func SortedSequentialUncompensatedContext(ctx context.Context, x, y []float64, g bandwidth.Grid) (bandwidth.Result, error) {
	return sortedSequential(ctx, x, y, g, true)
}

func sortedSequential(ctx context.Context, x, y []float64, g bandwidth.Grid, uncompensated bool) (bandwidth.Result, error) {
	if err := checkInputs(x, y, g); err != nil {
		return bandwidth.Result{}, err
	}
	n := len(x)
	k := g.Len()
	xs := toF32(x)
	ys := toF32(y)
	hs := toF32(g.H)
	scores := make([]float32, k)
	// comp carries the Neumaier compensation for each bandwidth's score
	// across observations; it stays all-zero on the uncompensated path.
	comp := make([]float32, k)
	absRow := make([]float32, n)
	yRow := make([]float32, n)
	for j := 0; j < n; j++ {
		if err := ctx.Err(); err != nil {
			return bandwidth.Result{}, err
		}
		fillRow(xs, ys, j, absRow, yRow)
		cuda.DeviceQuickSort(absRow, yRow)
		if uncompensated {
			accumulateRow(absRow, yRow, ys[j], hs, scores)
		} else {
			accumulateRowCompensated(absRow, yRow, ys[j], hs, scores, comp)
		}
	}
	out := make([]float64, k)
	for jh := range scores {
		out[jh] = float64(scores[jh]+comp[jh]) / float64(n)
	}
	return bandwidth.Best(g, out), nil
}

// fillRow computes absRow[i] = |x[i]−x[j]| and yRow[i] = y[i] for all i,
// including i == j, exactly as each device thread fills its row of the
// two n×n global matrices.
func fillRow(xs, ys []float32, j int, absRow, yRow []float32) {
	xj := xs[j]
	for i := range xs {
		d := xs[i] - xj
		if d < 0 {
			d = -d
		}
		absRow[i] = d
		yRow[i] = ys[i]
	}
}

// accumulateRow performs the incremental bandwidth sweep for observation
// j's sorted row and adds the squared leave-one-out residuals into scores.
// This is the shared arithmetic of Programs 3 and 4: float32 throughout,
// in-range terms accumulated in sorted order, self terms subtracted at
// the end, 0.75 Epanechnikov scaling applied after the division by h².
//
//kernvet:ignore compsum -- mirrors the paper's device arithmetic exactly; golden.json pins these plain f32 sums, and accumulateRowCompensated is the stable variant
func accumulateRow(absRow, yRow []float32, yj float32, hs []float32, scores []float32) {
	n := len(absRow)
	var sy, syd2, sd2 float32
	cnt := 0
	ptr := 0
	for jh, h := range hs {
		for ptr < n && absRow[ptr] <= h {
			d := absRow[ptr]
			d2 := d * d
			yv := yRow[ptr]
			sy += yv
			syd2 += yv * d2
			sd2 += d2
			cnt++
			ptr++
		}
		h2 := h * h
		// Leave-one-out: the self observation (distance 0) is in range
		// for every bandwidth and contributes yj to sy, nothing to the
		// d² sums, and one to the count.
		den := 0.75 * (float32(cnt-1) - sd2/h2)
		if den > 0 {
			num := 0.75 * ((sy - yj) - syd2/h2)
			r := yj - num/den
			scores[jh] += r * r
		}
	}
}

// accumulateRowCompensated is accumulateRow with Neumaier compensation on
// the three running prefix sums and on the cross-observation score
// accumulation (scores[jh]+comp[jh] is the compensated total). The prefix
// sums are where fast sum updating loses accuracy — a large common offset
// in Y makes sy cancel against the later (sy − yj) subtraction — while
// the score compensation bounds the O(n·ε) drift of adding n small
// squared residuals into one float32. On a real GPU all five extra values
// live in per-thread registers, so the scheme adds no shared memory and
// no global traffic.
func accumulateRowCompensated(absRow, yRow []float32, yj float32, hs []float32, scores, comp []float32) {
	n := len(absRow)
	var sy, syd2, sd2 mathx.NeumaierAccumulator32
	cnt := 0
	ptr := 0
	for jh, h := range hs {
		for ptr < n && absRow[ptr] <= h {
			d := absRow[ptr]
			d2 := d * d
			yv := yRow[ptr]
			sy.Add(yv)
			syd2.Add(yv * d2)
			sd2.Add(d2)
			cnt++
			ptr++
		}
		h2 := h * h
		den := 0.75 * (float32(cnt-1) - sd2.Sum()/h2)
		if den > 0 {
			num := 0.75 * ((sy.Sum() - yj) - syd2.Sum()/h2)
			r := yj - num/den
			// Neumaier step for scores[jh] += r*r with carry comp[jh].
			x := r * r
			t := scores[jh] + x
			if mathx.Abs32(scores[jh]) >= mathx.Abs32(x) {
				comp[jh] += (scores[jh] - t) + x
			} else {
				comp[jh] += (x - t) + scores[jh]
			}
			scores[jh] = t
		}
	}
}

// compAcc32 is a float32 accumulator that is either a plain running sum
// (the paper's original arithmetic) or Neumaier-compensated, chosen at
// construction. The device sweeps use it so the compensated and
// uncompensated pipelines share one kernel body; on the plain path the
// arithmetic is bit-identical to the original `s += x` loop.
type compAcc32 struct {
	plain bool
	v     float32
	acc   mathx.NeumaierAccumulator32
}

func (a *compAcc32) add(x float32) {
	if a.plain {
		a.v += x
		return
	}
	a.acc.Add(x)
}

func (a *compAcc32) sum() float32 {
	if a.plain {
		return a.v
	}
	return a.acc.Sum()
}

func checkInputs(x, y []float64, g bandwidth.Grid) error {
	if len(x) != len(y) {
		return fmt.Errorf("core: X has %d observations, Y has %d", len(x), len(y))
	}
	if len(x) < 2 {
		return fmt.Errorf("core: need at least 2 observations, have %d", len(x))
	}
	return g.Validate()
}

func toF32(xs []float64) []float32 {
	out := make([]float32, len(xs))
	for i, v := range xs {
		out[i] = float32(v)
	}
	return out
}
