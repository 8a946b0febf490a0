package core

import (
	"context"

	"repro/internal/bandwidth"
	"repro/internal/sortx"
)

// TwoPointerSequentialContext is the single-precision two-pointer
// counterpart of SortedSequential (Program 3): one global iterative
// QuickSort of the float32 sample, then each observation's row is
// enumerated nearest-first by merging the left and right runs with two
// pointers — O(n) per row instead of the per-row O(n log n) device sort
// — and fed to the same incremental bandwidth sweep (accumulateRow*)
// unchanged. Rows include the self observation (distance 0, emitted
// first) so the leave-one-out correction inside the sweep applies
// identically. ctx is polled once per observation; cancellation returns
// ctx.Err() and a zero Result.
func TwoPointerSequentialContext(ctx context.Context, x, y []float64, g bandwidth.Grid) (bandwidth.Result, error) {
	return twoPointerSequential(ctx, x, y, g, false)
}

// TwoPointerSequentialUncompensatedContext is
// TwoPointerSequentialContext with the paper's plain float32 running
// sums — the ablation twin, matching
// SortedSequentialUncompensatedContext. It polls ctx the same way.
func TwoPointerSequentialUncompensatedContext(ctx context.Context, x, y []float64, g bandwidth.Grid) (bandwidth.Result, error) {
	return twoPointerSequential(ctx, x, y, g, true)
}

func twoPointerSequential(ctx context.Context, x, y []float64, g bandwidth.Grid, uncompensated bool) (bandwidth.Result, error) {
	if err := checkInputs(x, y, g); err != nil {
		return bandwidth.Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return bandwidth.Result{}, err
	}
	n := len(x)
	k := g.Len()
	xs := toF32(x)
	ys := toF32(y)
	hs := toF32(g.H)
	sortx.QuickSort32(xs, ys)
	scores := make([]float32, k)
	comp := make([]float32, k)
	absRow := make([]float32, n)
	yRow := make([]float32, n)
	for j := 0; j < n; j++ {
		if err := ctx.Err(); err != nil {
			return bandwidth.Result{}, err
		}
		twoPointerFillRow32(xs, ys, j, absRow, yRow)
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

// twoPointerFillRow32 writes observation j's full row — self included,
// exactly as fillRow does — into absRow/yRow in ascending-distance
// order by merging the two sorted runs around position j. The self
// observation has distance 0 and is emitted first; duplicates of X_j
// also carry distance 0 and follow in run order, which is a tie
// permutation the float32 tolerance policy already covers (the
// per-thread DeviceQuickSort is unstable too).
func twoPointerFillRow32(xs, ys []float32, j int, absRow, yRow []float32) {
	xj := xs[j]
	absRow[0], yRow[0] = 0, ys[j]
	l, r := j-1, j+1
	n := len(xs)
	w := 1
	for l >= 0 && r < n {
		dl := xj - xs[l]
		dr := xs[r] - xj
		if dl <= dr {
			absRow[w], yRow[w] = dl, ys[l]
			l--
		} else {
			absRow[w], yRow[w] = dr, ys[r]
			r++
		}
		w++
	}
	for ; l >= 0; l-- {
		absRow[w], yRow[w] = xj-xs[l], ys[l]
		w++
	}
	for ; r < n; r++ {
		absRow[w], yRow[w] = xs[r]-xj, ys[r]
		w++
	}
}
