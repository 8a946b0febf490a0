package core

import (
	"context"
	"fmt"

	"repro/internal/bandwidth"
	"repro/internal/gpu"
)

// The tiled pipeline implements the paper's stated future work: "Future
// work will address this issue by eliminating the reliance on storing
// n-by-n matrices in the GPU's device memory" (§V) and "swapping matrices
// out to the host memory or to disk as necessary" (§IV.A).
//
// It is SelectGPU's pipeline launched in another shape: instead of two
// n×n scratch matrices, the device holds a 2×(C×n) scratch for C resident
// threads and the same main kernel is launched ⌈n/C⌉ times, each chunk of
// C observations reusing the same scratch rows. Total
// arithmetic is unchanged; the memory footprint drops from O(n²) to
// O(C·n), which moves the 4 GB wall from the paper's n ≈ 20,000 out past
// n = 100,000.

// TiledOptions configures the tiled device pipeline.
type TiledOptions struct {
	// Props describes the simulated device; zero selects TeslaS10.
	Props gpu.Properties
	// ChunkSize is the number of resident threads C sharing the scratch;
	// 0 picks the largest C whose scratch fits free device memory.
	ChunkSize int
	// KeepScores copies the CV score vector back to the host.
	KeepScores bool
	// Uncompensated reverts the sweep and score reductions to plain
	// float32 accumulation, as in GPUOptions.Uncompensated.
	Uncompensated bool
}

// autoChunk picks the largest chunk C ≤ n whose 2×C×n float32 scratch
// fits the device memory left after the fixed pipeline allocations, with
// 5% headroom for alignment. Returns an error when even C = 1 does not
// fit (n itself too large for the accumulator matrices).
func autoChunk(n, k int, props gpu.Properties) (int, error) {
	fixed := int64(n+n+4*n*k+k*n+k+2) * 4 // x, y, 4 accumulators, resid, cv, out
	budget := props.GlobalMemBytes - fixed
	budget -= budget / 20 // alignment/fragmentation headroom
	if budget <= 0 {
		return 0, fmt.Errorf("core: tiled pipeline fixed allocations (%d bytes) exceed device memory", fixed)
	}
	c := int(budget / int64(2*n*4))
	if c < 1 {
		return 0, fmt.Errorf("core: no room for even one scratch row of %d elements", n)
	}
	if c > n {
		c = n
	}
	return c, nil
}

// SelectGPUTiled runs the tiled pipeline functionally and returns the
// selection, a device report, and the chunk size used. Results are
// identical to SelectGPU: the per-observation arithmetic is unchanged,
// only scratch reuse differs.
func SelectGPUTiled(x, y []float64, g bandwidth.Grid, opt TiledOptions) (bandwidth.Result, *GPUReport, int, error) {
	return SelectGPUTiledContext(context.Background(), x, y, g, opt)
}

// SelectGPUTiledContext is SelectGPUTiled with cooperative cancellation
// at tile granularity: ctx is polled before every chunk launch (each
// chunk is C observations of device work) and once per reduction, so
// the ⌈n/C⌉-launch structure that fixes the memory wall also bounds the
// cancellation latency. Cancellation returns ctx.Err() and a zero
// Result.
func SelectGPUTiledContext(ctx context.Context, x, y []float64, g bandwidth.Grid, opt TiledOptions) (bandwidth.Result, *GPUReport, int, error) {
	gopt := GPUOptions{Props: opt.Props, KeepScores: opt.KeepScores, Uncompensated: opt.Uncompensated}
	return selectOnDevice(ctx, x, y, g, gopt.withDefaults(), tiledShape, opt.ChunkSize)
}

// PlanGPUTiled costs the tiled pipeline in planning mode: identical
// arithmetic to PlanGPU plus one launch overhead per chunk, with the
// O(C·n) memory footprint. It succeeds at sample sizes far beyond the
// untiled pipeline's wall.
func PlanGPUTiled(n, k, chunkSize int, props gpu.Properties) (Plan, int, error) {
	p, chunk, err := planPipeline(tiledShape, n, k, 0, n, chunkSize, props)
	if err != nil {
		return Plan{}, 0, err
	}
	p.ConstBytes = k * 4
	return p, chunk, nil
}

// MaxFeasibleNTiled returns the largest sample size the tiled pipeline
// fits on the device — bounded by the n×k accumulators and one scratch
// row, not by n×n matrices.
func MaxFeasibleNTiled(k int, props gpu.Properties, hi int) int {
	return maxFitting(hi, func(n int) bool {
		_, _, err := PlanGPUTiled(n, k, 0, props)
		return err == nil
	})
}
