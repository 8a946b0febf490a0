package harness

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/bandwidth"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/gpu"
	"repro/internal/kernel"
	"repro/internal/stats"
)

// Program identifies a selector under measurement. The first four carry
// the paper's numbering; the Go-native entries are this repository's
// additional deliverables.
type Program int

const (
	// ProgNumerical is Program 1 (Racine & Hayfield / R np analogue):
	// single-threaded numerical optimisation over the naive objective.
	ProgNumerical Program = iota
	// ProgNumericalMC is Program 2 (Multicore R analogue).
	ProgNumericalMC
	// ProgSeqC is Program 3: single-precision sorted grid search.
	ProgSeqC
	// ProgGPU is Program 4: the device pipeline; its cell values are the
	// simulator's modelled device seconds (PlanGPU), since a software
	// simulation's wall time says nothing about GPU time.
	ProgGPU
	// ProgSortedGo is the float64 host sorted grid search.
	ProgSortedGo
	// ProgParallelGo is the goroutine-parallel sorted grid search.
	ProgParallelGo
)

// String returns the display name used in tables.
func (p Program) String() string {
	switch p {
	case ProgNumerical:
		return "Numerical (P1)"
	case ProgNumericalMC:
		return "Numerical-MC (P2)"
	case ProgSeqC:
		return "Sequential C (P3)"
	case ProgGPU:
		return "CUDA model (P4)"
	case ProgSortedGo:
		return "Sorted Go"
	case ProgParallelGo:
		return "Parallel Go"
	default:
		return fmt.Sprintf("harness.Program(%d)", int(p))
	}
}

// PaperPrograms are the four programs of the paper's evaluation, in its
// order.
var PaperPrograms = []Program{ProgNumerical, ProgNumericalMC, ProgSeqC, ProgGPU}

// AllPrograms adds the Go-native selectors.
var AllPrograms = []Program{ProgNumerical, ProgNumericalMC, ProgSeqC, ProgGPU, ProgSortedGo, ProgParallelGo}

// Config controls an experiment run.
type Config struct {
	Seed int64
	// Runs is the repetitions per cell; the paper uses 5 and reports a
	// representative time. We report the median. 0 defaults to 3.
	Runs int
	// K is the bandwidth-grid size for Table I / Figure 1 (paper: 50).
	K int
	// Ns are the sample sizes; nil defaults to PaperSampleSizes.
	Ns []int
	// MaxMeasureN caps, per program, the largest n measured directly;
	// larger cells are extrapolated along the program's complexity curve
	// from the largest measured point and flagged. Zero means no cap.
	MaxMeasureN map[Program]int
	// Props is the simulated device profile (zero value: TeslaS10).
	Props gpu.Properties
	// Workers for the parallel programs (0: GOMAXPROCS).
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Runs <= 0 {
		c.Runs = 3
	}
	if c.K <= 0 {
		c.K = 50
	}
	if len(c.Ns) == 0 {
		c.Ns = append([]int(nil), PaperSampleSizes...)
	}
	if c.Props.SMCount == 0 {
		c.Props = gpu.TeslaS10()
	}
	return c
}

// Cell is one measured (or modelled / extrapolated) table entry.
type Cell struct {
	N, K         int
	Seconds      float64
	Runs         int
	Extrapolated bool // projected along the complexity curve, not measured
	Modelled     bool // simulator timing model, not wall clock
	Failed       bool // the program could not run this cell (e.g. OOM)
	Note         string
}

// MeasureCell runs one (program, n, k) combination cfg.Runs times on the
// paper's DGP and returns the median wall time (or the modelled device
// time for ProgGPU). The bandwidth result of the last run is returned for
// agreement checking.
func MeasureCell(p Program, n, k int, cfg Config) (Cell, bandwidth.Result, error) {
	cfg = cfg.withDefaults()
	d := data.GeneratePaper(n, cfg.Seed)
	g, err := bandwidth.DefaultGrid(d.X, k)
	if err != nil {
		return Cell{}, bandwidth.Result{}, err
	}
	if p == ProgGPU {
		plan, err := core.PlanGPU(n, k, cfg.Props)
		if err != nil {
			return Cell{N: n, K: k, Failed: true, Note: err.Error()}, bandwidth.Result{}, nil
		}
		return Cell{N: n, K: k, Seconds: plan.Seconds, Runs: 1, Modelled: true}, bandwidth.Result{}, nil
	}
	times := make([]float64, 0, cfg.Runs)
	var res bandwidth.Result
	for r := 0; r < cfg.Runs; r++ {
		start := time.Now()
		res, err = runProgram(p, d, g, cfg)
		elapsed := time.Since(start).Seconds()
		if err != nil {
			return Cell{N: n, K: k, Failed: true, Note: err.Error()}, bandwidth.Result{}, nil
		}
		times = append(times, elapsed)
	}
	sum := stats.Summarize(times)
	return Cell{N: n, K: k, Seconds: sum.Median, Runs: cfg.Runs}, res, nil
}

// runProgram executes one selection with program p.
func runProgram(p Program, d data.Dataset, g bandwidth.Grid, cfg Config) (bandwidth.Result, error) {
	switch p {
	case ProgNumerical:
		r, err := baselines.SelectNumerical(d.X, d.Y, baselines.Options{})
		return bandwidth.Result{H: r.H, CV: r.CV, Index: -1}, err
	case ProgNumericalMC:
		r, err := baselines.SelectNumericalParallel(d.X, d.Y, baselines.Options{Workers: cfg.Workers})
		return bandwidth.Result{H: r.H, CV: r.CV, Index: -1}, err
	case ProgSeqC:
		return core.SortedSequential(d.X, d.Y, g)
	case ProgSortedGo:
		return bandwidth.SortedGridSearchKernelStabilityContext(context.Background(), d.X, d.Y, g, kernel.Epanechnikov, bandwidth.Compensated)
	case ProgParallelGo:
		return bandwidth.SortedGridSearchParallelStabilityContext(context.Background(), d.X, d.Y, g, cfg.Workers, bandwidth.Compensated)
	default:
		return bandwidth.Result{}, fmt.Errorf("harness: cannot run program %v directly", p)
	}
}

// complexityFactor returns the program's asymptotic work at (n, k), used
// to extrapolate run times beyond MaxMeasureN along the right curve.
func complexityFactor(p Program, n, k int) float64 {
	nf, kf := float64(n), float64(k)
	lg := math.Log2(math.Max(nf, 2))
	switch p {
	case ProgNumerical, ProgNumericalMC:
		return nf * nf // per optimiser evaluation; eval count ≈ constant in n
	case ProgSeqC, ProgSortedGo, ProgParallelGo:
		return nf * (nf*lg + kf) // sort-dominated sweep
	default:
		return nf * nf
	}
}

// Column measures one program across the configured sample sizes, with
// extrapolation beyond the program's MaxMeasureN cap.
func Column(p Program, cfg Config) ([]Cell, error) {
	cfg = cfg.withDefaults()
	cells := make([]Cell, 0, len(cfg.Ns))
	maxN := 0
	if cfg.MaxMeasureN != nil {
		maxN = cfg.MaxMeasureN[p]
	}
	var lastMeasured *Cell
	for _, n := range cfg.Ns {
		k := cfg.K
		if k > n {
			k = n
		}
		if maxN > 0 && n > maxN && p != ProgGPU {
			if lastMeasured == nil {
				return nil, fmt.Errorf("harness: program %v has no measured cell to extrapolate from", p)
			}
			scale := complexityFactor(p, n, k) / complexityFactor(p, lastMeasured.N, lastMeasured.K)
			cells = append(cells, Cell{
				N: n, K: k,
				Seconds:      lastMeasured.Seconds * scale,
				Extrapolated: true,
				Note:         fmt.Sprintf("projected from n=%d", lastMeasured.N),
			})
			continue
		}
		cell, _, err := MeasureCell(p, n, k, cfg)
		if err != nil {
			return nil, err
		}
		if !cell.Failed && !cell.Modelled {
			c := cell
			lastMeasured = &c
		}
		cells = append(cells, cell)
	}
	return cells, nil
}
