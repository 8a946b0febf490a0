package mvreg

import (
	"context"
	"math"
	"runtime"
	"sync"

	"repro/internal/kernel"
)

// Parallel mesh search: the mesh factorises into columns — one fixed
// combination of the non-swept dimensions' bandwidths, served whole by
// a single dimension-0 sweep — and columns are independent, so they
// shard across goroutines the way the univariate parallel selector
// shards observations. Unlike that selector (whose per-worker partial
// score sums merge with plain adds, exact only to ~1 ULP), column
// sharding is bit-identical to the sequential mesh: every column's
// score vector is computed whole by exactly one worker with the same
// workspace arithmetic in the same observation order, each worker takes
// the strict first minimum over its contiguous column range, and the
// merge takes the strict first minimum across workers in column order —
// the same argmin decomposition the sequential odometer performs.

// MeshSearchParallelContext is MeshSearchContext with the mesh columns
// sharded across worker goroutines (0 = GOMAXPROCS), bit-identical to
// MeshSearchContext for every worker count. ctx is polled at sweep
// granularity inside every worker. Kernels without a prefix
// decomposition fall back to the sequential naive mesh.
func MeshSearchParallelContext(ctx context.Context, s Sample, grids [][]float64, k kernel.Kind, workers int) (Result, error) {
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	if err := validateGrids(s, grids); err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if k != kernel.Epanechnikov {
		// The naive per-cell fallback has no column structure worth
		// sharding here; keep one code path and one tie-break proof.
		return meshNaive(ctx, s, grids, k)
	}
	d := s.Dim()
	columns := 1
	for j := 1; j < d; j++ {
		columns *= len(grids[j])
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > columns {
		workers = columns
	}
	if workers <= 1 {
		return meshSweep(ctx, s, grids)
	}

	n := len(s.X)
	k0 := len(grids[0])
	maxH0 := grids[0][k0-1]
	results := make([]Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo := w * columns / workers
			hi := (w + 1) * columns / workers
			ws := AcquireWorkspace(n, d, k0)
			defer ws.Release()
			ws.buildAxisOrder(s, 0)
			otherIdx := make([]int, d)
			h := make([]float64, d)
			best := Result{CV: math.Inf(1)}
			for c := lo; c < hi; c++ {
				// Decode column c into the non-swept indices, dimension 1
				// fastest — the sequential odometer's order, so ascending c
				// enumerates columns exactly as meshSweep visits them.
				rem := c
				for j := 1; j < d; j++ {
					otherIdx[j] = rem % len(grids[j])
					rem /= len(grids[j])
				}
				for j := 1; j < d; j++ {
					h[j] = grids[j][otherIdx[j]]
				}
				scores := ws.scores[:k0]
				zeroFloats(scores)
				for i := 0; i < n; i++ {
					if i&ctxPollMask == 0 {
						if err := ctx.Err(); err != nil {
							errs[w] = err
							return
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
			}
			results[w] = best
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	for _, err := range errs {
		if err != nil {
			return Result{}, err
		}
	}
	// Merge in worker (= column) order with the strict first-minimum
	// comparison: identical to scanning the whole mesh sequentially.
	merged := Result{CV: math.Inf(1)}
	for _, r := range results {
		merged.Evals += r.Evals
		if r.H != nil && r.CV < merged.CV {
			merged.CV = r.CV
			merged.H = append(merged.H[:0], r.H...)
		}
	}
	return merged, nil
}
