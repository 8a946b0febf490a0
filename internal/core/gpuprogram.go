package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/bandwidth"
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/kernel"
	"repro/internal/mathx"
)

// GPUOptions configures the device pipeline.
type GPUOptions struct {
	// Props describes the simulated device; the zero value selects the
	// paper's Tesla S10 profile.
	Props gpu.Properties
	// BlockDim is the main kernel's threads per block; 0 selects the
	// device maximum (512 on the paper's GPU, which the paper found
	// fastest).
	BlockDim int
	// ReduceDim is the reduction block size T; 0 selects the device
	// maximum. Must be a power of two when set.
	ReduceDim int
	// UseIndexArgMin selects the footnote-2 arg-min variant that carries
	// grid indices instead of bandwidth values through shared memory.
	UseIndexArgMin bool
	// KeepScores copies the full CV score vector back to the host.
	KeepScores bool
	// Kernel selects the device kernel weighting function. The device
	// program supports the compact prefix-decomposable set of the
	// paper's footnote 1: Epanechnikov (default), Uniform, Triangular.
	Kernel kernel.Kind
	// NoIndexSwitch disables the paper's index-switch optimisation: the
	// residual matrix keeps the n×k layout, residual writes become
	// uncoalesced, and the per-bandwidth reductions read strided memory.
	// Ablation only (DESIGN.md decision 4); results are identical.
	NoIndexSwitch bool
	// Uncompensated reverts the main kernel's bandwidth sweep and the
	// per-bandwidth score reductions to the paper's plain float32
	// accumulation. The default (false) uses Neumaier compensation in the
	// sweep's running prefix sums and the reductions' strided folds,
	// which bounds the cancellation error that fast sum updating
	// accumulates at large n. Kept for ablation and for bit-exact
	// agreement with the original program.
	Uncompensated bool
}

func (o GPUOptions) withDefaults() GPUOptions {
	if o.Props.SMCount == 0 {
		o.Props = gpu.TeslaS10()
	}
	if o.BlockDim == 0 {
		o.BlockDim = o.Props.MaxThreadsPerBlock
	}
	if o.ReduceDim == 0 {
		o.ReduceDim = o.Props.MaxThreadsPerBlock
	}
	return o
}

// GPUReport describes what the simulated device did during a selection:
// memory high-water mark, per-label modelled time, operation tallies.
type GPUReport struct {
	ModelSeconds float64            // total modelled device+transfer time
	Mem          gpu.MemInfo        // allocator state after the run
	Stats        gpu.DeviceStats    // launches, memcpys, tallies
	TimeByLabel  map[string]float64 // modelled seconds per activity class
	TimeByKernel map[string]float64 // modelled seconds per kernel name
	Events       []gpu.ClockEvent   // the full modelled-time ledger
	MainTally    gpu.Tally          // the main kernel's tally
}

// SelectGPU runs Program 4 — the paper's CUDA program — functionally on a
// simulated device and returns the selected bandwidth, a device report,
// and any device error (out-of-memory above the capacity cliff, constant
// cache overflow for k > 2048, launch faults).
//
// Pipeline, following the paper's §IV.A–B:
//  1. allocate device arrays: X, Y (n), the two n×n scratch matrices, the
//     n×k accumulator matrices, the index-switched k×n residual matrix,
//     the k-vector of CV scores; upload the bandwidth grid to constant
//     memory (which enforces k ≤ 2048);
//  2. main kernel, one thread per observation: fill own row, iterative
//     QuickSort of the row, incremental sweep over the ascending
//     bandwidths, leave-one-out residuals written with switched indices;
//  3. k summation reductions (one per bandwidth) and one arg-min
//     reduction, both Harris-style single-block trees;
//  4. copy the winner back.
func SelectGPU(x, y []float64, g bandwidth.Grid, opt GPUOptions) (bandwidth.Result, *GPUReport, error) {
	return SelectGPUContext(context.Background(), x, y, g, opt)
}

// SelectGPUContext is SelectGPU with cooperative cancellation at the
// pipeline-stage boundaries the host controls: before the upload, before
// the main kernel, and once per reduction launch (the k summation
// reductions dominate the post-kernel host loop). A single simulated
// kernel launch is atomic — exactly as a real CUDA launch is — so
// cancellation granularity inside the device is one launch; the tiled
// pipeline offers finer per-chunk cancellation. Cancellation returns
// ctx.Err() and a zero Result.
func SelectGPUContext(ctx context.Context, x, y []float64, g bandwidth.Grid, opt GPUOptions) (bandwidth.Result, *GPUReport, error) {
	res, rep, _, err := selectOnDevice(ctx, x, y, g, opt.withDefaults(), untiledShape, len(x))
	return res, rep, err
}

// checkDeviceKernel rejects kernels outside the device program's compact
// prefix-decomposable set.
func checkDeviceKernel(kind kernel.Kind) error {
	switch kind {
	case kernel.Epanechnikov, kernel.Uniform, kernel.Triangular:
		return nil
	}
	return fmt.Errorf("core: device program supports epanechnikov, uniform, triangular; got %v", kind)
}

// selectOnDevice is the single-device selection behind SelectGPU and
// SelectGPUTiled: the pipeline over [0, n) with chunk resident scratch
// rows (chunk ≤ 0 picks autoChunk), then the device arg-min. It returns
// the chunk size used. opt must carry its defaults.
func selectOnDevice(ctx context.Context, x, y []float64, g bandwidth.Grid, opt GPUOptions, shape launchShape, chunk int) (bandwidth.Result, *GPUReport, int, error) {
	if err := checkInputs(x, y, g); err != nil {
		return bandwidth.Result{}, nil, 0, err
	}
	if err := ctx.Err(); err != nil {
		return bandwidth.Result{}, nil, 0, err
	}
	if err := checkDeviceKernel(opt.Kernel); err != nil {
		return bandwidth.Result{}, nil, 0, err
	}
	dev, err := gpu.NewDevice(opt.Props, gpu.Functional)
	if err != nil {
		return bandwidth.Result{}, nil, 0, err
	}
	n := len(x)
	k := g.Len()
	p, err := newPipeline(shape, n, k, 0, n, chunk, opt.Props)
	if err != nil {
		return bandwidth.Result{}, nil, 0, err
	}
	bufs, mainTally, err := p.run(ctx, dev, x, y, g, opt)
	if err != nil {
		return bandwidth.Result{}, nil, 0, err
	}

	argDim := reduceDim(opt.ReduceDim, k)
	argMin := cuda.ArgMinReduce
	if opt.UseIndexArgMin {
		argMin = cuda.ArgMinIndexReduce
	}
	am, err := argMin(dev, bufs.dCV, k, bufs.bw, bufs.dOut, argDim)
	if err != nil {
		return bandwidth.Result{}, nil, 0, err
	}

	res := bandwidth.Result{
		H:     float64(am.Bandwidth),
		CV:    float64(am.Score) / float64(n),
		Index: am.Index,
	}
	if opt.KeepScores {
		host := make([]float32, k)
		if err := dev.CopyFromDevice(host, bufs.dCV); err != nil {
			return bandwidth.Result{}, nil, 0, err
		}
		res.Scores = make([]float64, k)
		for jh, s := range host {
			res.Scores[jh] = float64(s) / float64(n)
		}
	}

	report := &GPUReport{
		ModelSeconds: dev.Clock().Seconds(),
		Mem:          dev.MemInfo(),
		Stats:        dev.Stats(),
		TimeByLabel:  dev.Clock().ByLabel(),
		TimeByKernel: dev.Clock().ByFullLabel(),
		Events:       dev.Clock().Events(),
		MainTally:    mainTally,
	}
	return res, report, p.chunk, nil
}

// launchShape is one way of launching the device pipeline. The untiled
// program, the tiled future-work pipeline and a multi-GPU device share
// run the same kernel and allocation sequence; they differ only in the
// names the ledger, Chrome traces and OOM messages show, and in whether
// the device picks the winner.
type launchShape struct {
	kernel  string // main kernel name
	scratch string // rows of the scratch matrices: "n", "C" or "share"
	rows    string // rows of the accumulator matrices: "n" or "share"
	// argMin allocates out[2] and ends with the device arg-min; a device
	// share returns its raw per-bandwidth sums to the host instead.
	argMin bool
	// free releases every buffer at the end of a plan, charging cudaFree.
	// Only the untiled plan does; the tiled and share plans leave their
	// buffers to device teardown, and their modelled seconds omit it.
	free bool
}

var (
	untiledShape = launchShape{kernel: "bandwidthMain", scratch: "n", rows: "n", argMin: true, free: true}
	tiledShape   = launchShape{kernel: "bandwidthMainTiled", scratch: "C", rows: "n", argMin: true}
	shareShape   = launchShape{kernel: "bandwidthMainShare", scratch: "share", rows: "share"}
)

// pipeline is the device pipeline over the observations [lo, hi) of a
// sample of size n, with chunk resident scratch rows: ⌈(hi−lo)/chunk⌉
// main-kernel launches, then k per-bandwidth reductions.
type pipeline struct {
	launchShape
	n, k, lo, hi, chunk int
}

// newPipeline resolves the chunk size: chunk ≤ 0 picks the largest that
// fits the device (autoChunk), and no chunk exceeds the range.
func newPipeline(shape launchShape, n, k, lo, hi, chunk int, props gpu.Properties) (pipeline, error) {
	if chunk <= 0 {
		var err error
		if chunk, err = autoChunk(n, k, props); err != nil {
			return pipeline{}, err
		}
	}
	if chunk > hi-lo {
		chunk = hi - lo
	}
	return pipeline{launchShape: shape, n: n, k: k, lo: lo, hi: hi, chunk: chunk}, nil
}

// pipelineBuffers holds the device allocations of the paper's program.
type pipelineBuffers struct {
	bw             *gpu.ConstSymbol // k bandwidths in constant memory
	dX, dY         gpu.Buffer       // n
	dAbsD, dYM     gpu.Buffer       // chunk×n scratch matrices
	dSumY, dSumYD2 gpu.Buffer       // rows×k accumulators
	dSumD2, dCnt   gpu.Buffer       // rows×k accumulators
	dResid         gpu.Buffer       // k×rows (index-switched) squared residuals
	dCV            gpu.Buffer       // k
	dOut           gpu.Buffer       // 2 (min score, best bandwidth), argMin only
}

// alloc performs the paper's allocation sequence. The two scratch
// matrices dominate and, untiled (chunk = n), produce the out-of-memory
// failure above n = 20,000 on the 4 GB profile. The paper's description
// tracks two n×k sum matrices explicitly; the Epanechnikov leave-one-out
// estimator also needs the in-range ΣY and count per (observation,
// bandwidth), so four accumulator matrices are allocated — the capacity
// cliff is unaffected (at n = 20,000, k = 50 they total 16 MB against the
// n×n matrices' 3.2 GB).
func (p pipeline) alloc(dev *gpu.Device) (pipelineBuffers, error) {
	var b pipelineBuffers
	var err error
	alloc := func(dst *gpu.Buffer, elems int, label string) {
		if err != nil {
			return
		}
		*dst, err = dev.Malloc(elems, label)
	}
	n, k, rows := p.n, p.k, p.hi-p.lo
	alloc(&b.dX, n, "x")
	alloc(&b.dY, n, "y")
	alloc(&b.dAbsD, p.chunk*n, "absdiff["+p.scratch+"×n]")
	alloc(&b.dYM, p.chunk*n, "ymatrix["+p.scratch+"×n]")
	alloc(&b.dSumY, rows*k, "sumY["+p.rows+"×k]")
	alloc(&b.dSumYD2, rows*k, "sumYd2["+p.rows+"×k]")
	alloc(&b.dSumD2, rows*k, "sumD2["+p.rows+"×k]")
	alloc(&b.dCnt, rows*k, "count["+p.rows+"×k]")
	alloc(&b.dResid, k*rows, "resid[k×"+p.rows+"]")
	alloc(&b.dCV, k, "cv[k]")
	if p.argMin {
		alloc(&b.dOut, 2, "out[2]")
	}
	return b, err
}

// eachChunk calls fn for every chunk [start, start+count) of the range,
// counted from lo, and stops at the first error.
func (p pipeline) eachChunk(fn func(start, count int) error) error {
	rows := p.hi - p.lo
	for start := 0; start < rows; start += p.chunk {
		if err := fn(start, min(p.chunk, rows-start)); err != nil {
			return err
		}
	}
	return nil
}

// run executes the pipeline on dev up to the per-bandwidth sums in cv:
// grid upload, allocation, x and y upload, the main-kernel chunks and the
// k reductions. ctx is polled before every chunk and every reduction.
func (p pipeline) run(ctx context.Context, dev *gpu.Device, x, y []float64, g bandwidth.Grid, opt GPUOptions) (pipelineBuffers, gpu.Tally, error) {
	// Constant memory: the bandwidth grid. The 8 KB cached working set
	// caps this at 2,048 float32 values, the paper's hard limit on k.
	bwSym, err := dev.UploadConstant("bandwidths", toF32(g.H))
	if err != nil {
		return pipelineBuffers{}, gpu.Tally{}, err
	}
	b, err := p.alloc(dev)
	if err != nil {
		return pipelineBuffers{}, gpu.Tally{}, err
	}
	b.bw = bwSym
	if err := dev.CopyToDevice(b.dX, toF32(x)); err != nil {
		return pipelineBuffers{}, gpu.Tally{}, err
	}
	if err := dev.CopyToDevice(b.dY, toF32(y)); err != nil {
		return pipelineBuffers{}, gpu.Tally{}, err
	}

	var mainTally gpu.Tally
	err = p.eachChunk(func(start, count int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		t, err := p.launchMainKernel(dev, b, start, count, opt)
		mainTally.Add(t)
		return err
	})
	if err != nil {
		return pipelineBuffers{}, gpu.Tally{}, err
	}

	// One summation reduction per bandwidth (paper: "a summation
	// reduction is performed k times, once for each bandwidth").
	// Compensated runs use the Kahan strided fold; the NoIndexSwitch
	// ablation keeps the plain strided reduction in both modes, since it
	// exists to reproduce the original program's memory traffic.
	rows := p.hi - p.lo
	redDim := reduceDim(opt.ReduceDim, rows)
	for jh := 0; jh < p.k; jh++ {
		if err := ctx.Err(); err != nil {
			return pipelineBuffers{}, gpu.Tally{}, err
		}
		switch {
		case opt.NoIndexSwitch:
			err = cuda.SumReduceStrided(dev, b.dResid, jh, rows, p.k, b.dCV, jh, redDim)
		case opt.Uncompensated:
			err = cuda.SumReduce(dev, b.dResid, jh*rows, rows, b.dCV, jh, redDim)
		default:
			err = cuda.SumReduceKahan(dev, b.dResid, jh*rows, rows, b.dCV, jh, redDim)
		}
		if err != nil {
			return pipelineBuffers{}, gpu.Tally{}, err
		}
	}
	return b, mainTally, nil
}

// launchMainKernel runs the paper's main kernel over one chunk: thread t
// takes observation j = lo+start+t, fills scratch row t of the distance
// and Y matrices, sorts them with the iterative QuickSort, performs the
// incremental bandwidth sweep into accumulator row start+t, and
// finally writes leave-one-out squared residuals into the residual
// matrix with switched indices (k groups of hi−lo) so the subsequent
// per-bandwidth reductions read coalesced memory.
func (p pipeline) launchMainKernel(dev *gpu.Device, b pipelineBuffers, start, count int, opt GPUOptions) (gpu.Tally, error) {
	n, k, rows := p.n, p.k, p.hi-p.lo
	blockDim := opt.BlockDim
	if blockDim > dev.Props().MaxThreadsPerBlock {
		blockDim = dev.Props().MaxThreadsPerBlock
	}
	if blockDim > count {
		blockDim = count
	}
	cfg := gpu.LaunchConfig{GridDim: (count + blockDim - 1) / blockDim, BlockDim: blockDim}
	attrs := gpu.KernelAttrs{Name: p.kernel, UsesBarrier: false}
	return dev.Launch(attrs, cfg, func(tc *gpu.ThreadCtx) {
		t := tc.GlobalID()
		if t >= count {
			return
		}
		row := start + t
		j := p.lo + row
		xs := tc.GlobalSlice(b.dX, 0, n)
		ys := tc.GlobalSlice(b.dY, 0, n)
		absRow := tc.GlobalSlice(b.dAbsD, t*n, n)
		yRow := tc.GlobalSlice(b.dYM, t*n, n)

		// Phase 1: fill. Reads of X/Y are warp-broadcast (every thread
		// reads the same element per iteration) and charge as
		// coalesced; the row writes walk per-thread rows and are fully
		// uncoalesced.
		xj := xs[j]
		for i := 0; i < n; i++ {
			d := xs[i] - xj
			if d < 0 {
				d = -d
			}
			absRow[i] = d
			yRow[i] = ys[i]
		}
		tc.ChargeOps(int64(3 * n))
		tc.SetAccessPattern(gpu.Coalesced)
		tc.ChargeGlobalRead(int64(2*n+1) * 4)
		tc.SetAccessPattern(gpu.Uncoalesced)
		tc.ChargeGlobalWrite(int64(2*n) * 4)

		// Phase 2: each thread performs its own complete sort of its
		// row (in-place in global memory, uncoalesced).
		sc := cuda.DeviceQuickSort(absRow, yRow)
		cuda.ChargeSort(tc, sc)

		// Phase 3: incremental sweep across the ascending bandwidth
		// grid. For the Epanechnikov kernel the accumulators are Σy,
		// Σy·d², Σd²; for the Triangular they are Σy, Σy·|d|, Σ|d|; for
		// the Uniform just Σy — the count rides along in all cases
		// (footnote 1's prefix-decomposable set). By default the three
		// running sums carry Neumaier compensation: the sum and carry
		// are per-thread registers, so the stabilised sweep costs extra
		// flops but no extra memory traffic. The stored per-bandwidth
		// snapshots stay plain float32, as the matrices' layout demands.
		sy := compAcc32{plain: opt.Uncompensated}
		syAux := compAcc32{plain: opt.Uncompensated}
		sAux := compAcc32{plain: opt.Uncompensated}
		cnt := 0
		ptr := 0
		sweepReads := 0
		for jh := 0; jh < k; jh++ {
			h := tc.Const(b.bw, jh)
			for ptr < n && absRow[ptr] <= h {
				d := absRow[ptr]
				yv := yRow[ptr]
				sy.add(yv)
				switch opt.Kernel {
				case kernel.Uniform:
					// count and Σy suffice
				case kernel.Triangular:
					syAux.add(yv * d)
					sAux.add(d)
				default: // Epanechnikov
					d2 := d * d
					syAux.add(yv * d2)
					sAux.add(d2)
				}
				cnt++
				ptr++
				sweepReads += 2
			}
			base := row*k + jh
			tc.Store(b.dSumY, base, sy.sum())
			tc.Store(b.dSumYD2, base, syAux.sum())
			tc.Store(b.dSumD2, base, sAux.sum())
			tc.Store(b.dCnt, base, float32(cnt))
		}
		if opt.Uncompensated {
			tc.ChargeOps(int64(6*ptr + 2*k))
		} else {
			// Compensation quadruples each accumulate: ~4 flops per Add.
			tc.ChargeOps(int64(15*ptr + 2*k))
		}
		tc.ChargeGlobalRead(int64(sweepReads) * 4)

		// Phase 4: combine the accumulator matrices into leave-one-out
		// squared residuals. Reads are uncoalesced (stride-k rows);
		// the residual writes switch indices — resid[jh·(hi−lo) + row] — so
		// that warp-adjacent threads write adjacent addresses
		// (coalesced), the paper's bank-conflict optimisation.
		yj := ys[j]
		for jh := 0; jh < k; jh++ {
			h := tc.Const(b.bw, jh)
			base := row*k + jh
			sY := tc.Load(b.dSumY, base)
			sYAux := tc.Load(b.dSumYD2, base)
			sAux := tc.Load(b.dSumD2, base)
			c := tc.Load(b.dCnt, base)
			// Leave-one-out correction: the self term (distance 0) adds
			// yj to Σy, K(0)-dependent nothing to the aux sums, and one
			// to the count.
			var num, den float32
			switch opt.Kernel {
			case kernel.Uniform:
				num = 0.5 * (sY - yj)
				den = 0.5 * (c - 1)
			case kernel.Triangular:
				num = (sY - yj) - sYAux/h
				den = (c - 1) - sAux/h
			default: // Epanechnikov
				h2 := h * h
				num = 0.75 * ((sY - yj) - sYAux/h2)
				den = 0.75 * ((c - 1) - sAux/h2)
			}
			var r2 float32
			if den > 0 {
				r := yj - num/den
				r2 = r * r
			}
			if opt.NoIndexSwitch {
				// Ablation: unswitched n×k layout — warp-adjacent
				// threads write addresses k elements apart.
				tc.Store(b.dResid, row*k+jh, r2)
			} else {
				tc.SetAccessPattern(gpu.Coalesced)
				tc.Store(b.dResid, jh*rows+row, r2)
				tc.SetAccessPattern(gpu.Uncoalesced)
			}
			tc.ChargeOps(10)
		}
	})
}

// reduceDim picks the reduction block size: the requested power of two,
// shrunk to the smallest power of two covering n when that is smaller.
func reduceDim(want, n int) int {
	d := mathx.NextPow2(n)
	if d > want {
		d = want
	}
	if d < 1 {
		d = 1
	}
	return d
}

// VerifyAgreement cross-checks two results the way the paper's §IV.C
// protocol does: the selected bandwidths must be identical grid points and
// the CV scores must agree within tol (relative). It returns a descriptive
// error on disagreement.
func VerifyAgreement(a, b bandwidth.Result, tol float64) error {
	if a.Index != b.Index {
		return fmt.Errorf("core: selected bandwidth disagrees: index %d (h=%g, cv=%g) vs index %d (h=%g, cv=%g)",
			a.Index, a.H, a.CV, b.Index, b.H, b.CV)
	}
	if d := mathx.RelDiff(a.CV, b.CV); d > tol || math.IsNaN(d) {
		return fmt.Errorf("core: CV scores disagree by %g (> %g): %g vs %g", d, tol, a.CV, b.CV)
	}
	return nil
}
