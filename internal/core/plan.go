package core

import (
	"math"

	"repro/internal/gpu"
)

// Planning-mode cost model: closed-form operation tallies for each kernel
// of the pipeline, matching the charges the functional engine records.
// The QuickSort constants are average-case coefficients for the
// median-of-three iterative sort with an insertion-sort cutoff; the test
// suite validates every formula against functional tallies.

// Cost-model coefficients (exported for the ablation benches; treat as
// read-only).
var (
	// QSCompCoeff·n·log2(n) ≈ expected comparisons of DeviceQuickSort.
	QSCompCoeff = 1.22
	// QSSwapCoeff·n·log2(n) ≈ expected swaps.
	QSSwapCoeff = 0.33
	// DivergenceFactor inflates mean per-thread ops to the expected
	// per-warp maximum (sort path lengths differ across threads).
	DivergenceFactor = 1.10
)

// log2f is a shorthand for float64 log2 with a floor of 1 to keep the
// closed forms sane at tiny n.
func log2f(n int) float64 {
	if n < 2 {
		return 1
	}
	return math.Log2(float64(n))
}

// MainKernelPlan returns the analytic tally of the main kernel for n
// observations and k bandwidths on a device with the given properties.
func MainKernelPlan(n, k int, p gpu.Properties) gpu.Tally {
	return mainKernelPlanThreads(n, n, k, p)
}

// mainKernelPlanThreads is MainKernelPlan generalised to a launch of
// `threads` observation-threads over a sample of size n — the shape the
// tiled pipeline's per-chunk launches have. Per-thread work depends on n
// (the row length); totals scale with the thread count.
func mainKernelPlanThreads(threads, n, k int, p gpu.Properties) gpu.Tally {
	blockDim := p.MaxThreadsPerBlock
	if blockDim > threads {
		blockDim = threads
	}
	blocks := (threads + blockDim - 1) / blockDim
	warpsPerBlock := (blockDim + p.WarpSize - 1) / p.WarpSize
	nf, kf := float64(n), float64(k)
	tf := float64(threads)
	lg := log2f(n)

	comps := QSCompCoeff * nf * lg
	swaps := QSSwapCoeff * nf * lg
	sortOps := comps + 2*swaps
	sortReads := comps + 4*swaps // elements
	sortWrites := 4 * swaps

	// Per-thread operation count, phase by phase (see launchMainKernel).
	perThread := 3*nf + // fill
		sortOps +
		6*nf + 3*kf + 4*kf + // sweep + const reads + accumulator stores
		10*kf + 6*kf // residual combine + loads/const/stores

	// Raw global traffic per thread, bytes.
	readRaw := (2*nf+1)*4 + sortReads*4 + 2*nf*4 + 4*kf*4
	writeRaw := 2*nf*4 + sortWrites*4 + 4*kf*4 + kf*4

	// Effective traffic: only the fill's broadcast reads and the
	// index-switched residual writes are coalesced.
	tx := float64(p.TransactionBytes)
	readEff := (2*nf+1)*4 + (sortReads+2*nf+4*kf)*tx
	writeEff := (2*nf+4*swaps+4*kf)*tx + kf*4

	launched := float64(blocks * blockDim)
	return gpu.Tally{
		Threads:       blocks * blockDim,
		Blocks:        blocks,
		Warps:         blocks * warpsPerBlock,
		ThreadOps:     int64(perThread * tf),
		WarpMaxOps:    int64(perThread * DivergenceFactor * launched / float64(p.WarpSize)),
		GlobalRead:    int64(readRaw * tf),
		GlobalWrite:   int64(writeRaw * tf),
		GlobalReadEff: int64(readEff * tf),
		GlobalWrEff:   int64(writeEff * tf),
		ConstReads:    int64(2 * kf * tf),
	}
}

// SumReducePlan returns the analytic tally of one per-bandwidth summation
// reduction over n elements with block size T.
func SumReducePlan(n, T int, p gpu.Properties) gpu.Tally {
	nf, tf := float64(n), float64(T)
	strideIters := math.Ceil(nf / tf)
	lgT := log2f(T)
	// Strided pass: 2 ops per element (load+add) + shared store + sync;
	// tree: per level, active threads do ~4 ops, all threads sync.
	perThreadMean := 2*strideIters + 2 + lgT + 4 // + tree share
	treeOps := 4*(tf-1) + tf*lgT                 // total extra ops in the tree
	totalOps := perThreadMean*tf + treeOps
	warps := (T + p.WarpSize - 1) / p.WarpSize
	return gpu.Tally{
		Threads:       T,
		Blocks:        1,
		Warps:         warps,
		ThreadOps:     int64(totalOps),
		WarpMaxOps:    int64(totalOps / float64(p.WarpSize) * 1.05),
		GlobalRead:    int64(nf * 4),
		GlobalWrite:   4,
		GlobalReadEff: int64(nf * 4), // strided reads are coalesced
		GlobalWrEff:   4,
		SharedOps:     int64(tf + 3*(tf-1)),
		Barriers:      int64(tf * (lgT + 1)),
	}
}

// ArgMinPlan returns the analytic tally of the final arg-min reduction
// over k scores with block size T.
func ArgMinPlan(k, T int, p gpu.Properties) gpu.Tally {
	kf, tf := float64(k), float64(T)
	strideIters := math.Ceil(kf / tf)
	lgT := log2f(T)
	totalOps := (3*strideIters+3+lgT)*tf + 8*(tf-1)
	warps := (T + p.WarpSize - 1) / p.WarpSize
	return gpu.Tally{
		Threads:       T,
		Blocks:        1,
		Warps:         warps,
		ThreadOps:     int64(totalOps),
		WarpMaxOps:    int64(totalOps / float64(p.WarpSize) * 1.05),
		GlobalRead:    int64(kf * 4),
		GlobalWrite:   8,
		GlobalReadEff: int64(kf * 4),
		GlobalWrEff:   8,
		ConstReads:    int64(kf),
		SharedOps:     int64(2*tf + 6*(tf-1)),
		Barriers:      int64(tf * (lgT + 1)),
	}
}

// Plan is the outcome of a planning-mode pipeline run: the modelled wall
// time of the whole selection (context init, allocation, transfers,
// kernels) and the device memory footprint.
type Plan struct {
	N, K         int
	Seconds      float64
	Mem          gpu.MemInfo
	TimeByLabel  map[string]float64
	KernelTally  gpu.Tally
	ConstBytes   int
	ReduceBlocks int
}

// PlanGPU runs the paper's pipeline in planning mode on a device with the
// given properties: every allocation, transfer, and kernel is costed
// through the same accounting as the functional engine, but no data is
// touched. This regenerates the paper's large-n run times and reproduces
// both capacity cliffs — it returns gpu.ErrOutOfMemory (wrapped) above
// the n×n memory wall and gpu.ErrConstCacheExceeded for k > 2,048.
func PlanGPU(n, k int, props gpu.Properties) (Plan, error) {
	p, _, err := planPipeline(untiledShape, n, k, 0, n, n, props)
	if err != nil {
		return Plan{}, err
	}
	p.ConstBytes, p.ReduceBlocks = k*4, k+1
	return p, nil
}

// planPipeline costs one pipeline run (see newPipeline for chunk) in
// planning mode, mirroring the functional sequence: grid upload,
// allocation, x and y upload, one planned launch per chunk, k
// reductions and, for shapes that pick the winner on the device, the
// arg-min and the copy of out[2]. It returns the chunk size used.
func planPipeline(shape launchShape, n, k, lo, hi, chunk int, props gpu.Properties) (Plan, int, error) {
	dev, err := gpu.NewDevice(props, gpu.Planning)
	if err != nil {
		return Plan{}, 0, err
	}
	p, err := newPipeline(shape, n, k, lo, hi, chunk, props)
	if err != nil {
		return Plan{}, 0, err
	}
	if _, err := dev.UploadConstant("bandwidths", make([]float32, k)); err != nil {
		return Plan{}, 0, err
	}
	b, err := p.alloc(dev)
	if err != nil {
		return Plan{}, 0, err
	}
	host := make([]float32, n)
	if err := dev.CopyToDevice(b.dX, host); err != nil {
		return Plan{}, 0, err
	}
	if err := dev.CopyToDevice(b.dY, host); err != nil {
		return Plan{}, 0, err
	}
	_ = p.eachChunk(func(_, count int) error {
		dev.LaunchPlanned(p.kernel, mainKernelPlanThreads(count, n, k, props))
		return nil
	})
	rows := hi - lo
	redDim := reduceDim(props.MaxThreadsPerBlock, rows)
	for jh := 0; jh < k; jh++ {
		dev.LaunchPlanned("sumReduce", SumReducePlan(rows, redDim, props))
	}
	if p.argMin {
		argDim := reduceDim(props.MaxThreadsPerBlock, k)
		dev.LaunchPlanned("argMinReduce", ArgMinPlan(k, argDim, props))
		if err := dev.CopyFromDevice(make([]float32, 2), b.dOut); err != nil {
			return Plan{}, 0, err
		}
	}
	mem := dev.MemInfo()
	if p.free {
		for _, buf := range []gpu.Buffer{b.dX, b.dY, b.dAbsD, b.dYM, b.dSumY, b.dSumYD2, b.dSumD2, b.dCnt, b.dResid, b.dCV, b.dOut} {
			_ = dev.Free(buf)
		}
	}
	return Plan{
		N:           n,
		K:           k,
		Seconds:     dev.Clock().Seconds(),
		Mem:         mem,
		TimeByLabel: dev.Clock().ByLabel(),
		KernelTally: dev.Stats().KernelTally,
	}, p.chunk, nil
}

// MaxFeasibleN returns the largest sample size whose pipeline fits in the
// device's global memory, found by bisection over PlanGPU's allocator —
// the paper's empirical answer is 20,000 on its 4 GB device.
func MaxFeasibleN(k int, props gpu.Properties, hi int) int {
	return maxFitting(hi, func(n int) bool {
		_, err := PlanGPU(n, k, props)
		return err == nil
	})
}

// maxFitting returns hi when fits(hi), else the largest n in [2, hi)
// that fits, by bisection.
func maxFitting(hi int, fits func(n int) bool) int {
	if fits(hi) {
		return hi
	}
	lo := 2
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if fits(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
