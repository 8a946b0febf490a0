package bandwidth

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"

	"repro/internal/kernel"
	"repro/internal/mathx"
)

// Bagged cross-validation bandwidth selection, after Barreiro-Ures, Cao
// & Francisco-Fernández (arXiv:2105.04134). The exact selectors pay at
// least Θ(k·n) per grid (Θ(n²) for all but the two-pointer window
// sweep). Bagging cuts the sample instead: draw r subsamples of size
// m ≪ n, run the two-pointer sweep on each bag (O(m log m + k·m)
// apiece), and aggregate the per-bag winners. Because the CV-optimal
// bandwidth shrinks like n^(-1/5), a bandwidth selected at sample size
// m is rescaled to the full sample by the asymptotic factor
//
//	h_n = (m/n)^(1/5) · aggregate(h_m⁽¹⁾, …, h_m⁽ʳ⁾)
//
// The bags are independent, so the whole selection is embarrassingly
// parallel and costs r bag sweeps divided among the workers.
//
// Determinism: subsampling uses math/rand/v2's PCG with a caller-fixed
// seed, and bag b always draws from the stream rand.NewPCG(seed, b+1)
// regardless of which worker goroutine runs it, so a (sample, options)
// pair maps to exactly one answer on every run and every GOMAXPROCS.

// DefaultBags is the subsample count used when BaggedOptions.Bags is 0.
// Variance of the bagged bandwidth decays like 1/r; past a few tens of
// bags the subsampling bias dominates and more bags stop helping.
const DefaultBags = 20

// Bag-size defaults: below baggedSmallN the quadratic sweep is already
// cheap, so bagging would only add noise — the selector degenerates to
// the exact full-sample sweep. Above it, m grows like n^0.7 (big enough
// that the per-bag selection is consistent, small enough that r·m² stays
// flat) and is capped at baggedMaxDefaultSize so the per-bag cost never
// exceeds a few tens of milliseconds no matter how large n gets.
const (
	baggedSmallN          = 512
	baggedMaxDefaultSize  = 4096
	baggedSizeGrowthPower = 0.7
)

// DefaultBagSize returns the subsample size used when
// BaggedOptions.BagSize is 0: n itself for small samples (the selection
// is then exact), min(4096, max(512, ⌈n^0.7⌉)) otherwise.
func DefaultBagSize(n int) int {
	if n <= baggedSmallN {
		return n
	}
	m := int(math.Ceil(math.Pow(float64(n), baggedSizeGrowthPower)))
	if m < baggedSmallN {
		m = baggedSmallN
	}
	if m > baggedMaxDefaultSize {
		m = baggedMaxDefaultSize
	}
	if m > n {
		m = n
	}
	return m
}

// Aggregation selects how the per-bag winning bandwidths are combined
// into the reported selection.
type Aggregation int

const (
	// AggregateMean reports the rescaled mean of the bag winners — the
	// estimator of Barreiro-Ures et al. and the default.
	AggregateMean Aggregation = iota
	// AggregateMedian reports the rescaled median instead: robust to a
	// bag that lands on a degenerate subsample and selects an outlier
	// bandwidth, at slightly higher variance on clean data.
	AggregateMedian
)

// String returns the aggregation name.
func (a Aggregation) String() string {
	if a == AggregateMedian {
		return "median"
	}
	return "mean"
}

// ParseAggregation maps "mean"/"median" (and "" = mean) to the enum.
func ParseAggregation(s string) (Aggregation, error) {
	switch s {
	case "", "mean":
		return AggregateMean, nil
	case "median":
		return AggregateMedian, nil
	}
	return 0, fmt.Errorf("bandwidth: unknown aggregation %q (want \"mean\" or \"median\")", s)
}

// BaggedOptions configures BaggedGridSearchContext.
type BaggedOptions struct {
	// Bags is the number of subsamples r (0 = DefaultBags).
	Bags int
	// BagSize is the subsample size m, 2 ≤ m ≤ n (0 = DefaultBagSize(n)).
	BagSize int
	// Seed fixes the PCG subsampling streams; equal seeds reproduce the
	// selection bit-for-bit.
	Seed uint64
	// Workers bounds the concurrent bag sweeps (0 = GOMAXPROCS).
	Workers int
	// Stability selects the per-bag sweep's summation mode.
	Stability Stability
	// Aggregation selects which aggregate Result.H reports
	// (default AggregateMean). Mean, Median and CVVar are populated
	// either way.
	Aggregation Aggregation
}

// BaggedResult is the outcome of a bagged selection. When m == n every
// bag is the full sample, so the embedded Result is one exact
// full-sample sweep, bit-identical to
// TwoPointerGridSearchKernelStabilityContext, and Factor is exactly 1.
// Otherwise Result.H carries the rescaled mean bandwidth (a continuum
// value, not a grid point), Result.Index is -1, Result.Scores is nil,
// and Result.CV is the compensated mean of the per-bag CV minima — the
// bags' attained objective at size m, not the full-sample CV at H.
type BaggedResult struct {
	Result
	// Mean and Median are the rescaled aggregates of the per-bag
	// winners; Result.H equals the one selected by
	// BaggedOptions.Aggregation (Mean by default).
	Mean, Median float64
	// Factor is the (m/n)^(1/5) rescaling applied to the aggregates.
	Factor float64
	// Bags and BagSize are the effective r and m after defaulting.
	Bags, BagSize int
	// CVVar is the unbiased sample variance of the per-bag CV minima —
	// the spread behind Result.CV's mean, for confidence reporting.
	// Zero on the degenerate m == n path (one exact sweep, no spread)
	// and with a single bag.
	CVVar float64
	// BagH lists the unscaled per-bag winning bandwidths, indexed by
	// bag; nil on the degenerate m == n path.
	BagH []float64
}

// BaggedGridSearchContext selects a bandwidth by bagging the two-pointer
// sweep over r deterministic subsamples of size m and rescaling the
// mean winner by (m/n)^(1/5). Every bag worker polls ctx between bags,
// and the inner sweeps poll it per candidate bandwidth. Cancellation
// returns ctx.Err() and a zero BaggedResult — never a partial
// aggregate.
func BaggedGridSearchContext(ctx context.Context, x, y []float64, g Grid, k kernel.Kind, opt BaggedOptions) (BaggedResult, error) {
	if err := validateSample(x, y); err != nil {
		return BaggedResult{}, err
	}
	if err := g.Validate(); err != nil {
		return BaggedResult{}, err
	}
	if _, err := sweepFunc(k, opt.Stability); err != nil {
		return BaggedResult{}, err
	}
	if opt.Aggregation != AggregateMean && opt.Aggregation != AggregateMedian {
		return BaggedResult{}, fmt.Errorf("bandwidth: unknown aggregation %d", int(opt.Aggregation))
	}
	n := len(x)
	r := opt.Bags
	if r == 0 {
		r = DefaultBags
	}
	if r < 1 {
		return BaggedResult{}, fmt.Errorf("bandwidth: bags must be at least 1, got %d", r)
	}
	m := opt.BagSize
	if m == 0 {
		m = DefaultBagSize(n)
	}
	if m < 2 {
		return BaggedResult{}, fmt.Errorf("bandwidth: bag size must be at least 2, got %d", m)
	}
	if m > n {
		return BaggedResult{}, fmt.Errorf("bandwidth: bag size %d exceeds the sample size %d", m, n)
	}
	if err := ctx.Err(); err != nil {
		return BaggedResult{}, err
	}
	if m == n {
		// Every "subsample" is the whole sample: one exact sweep stands
		// for all r bags, and (n/n)^(1/5) = 1 exactly, so this path is
		// bit-identical to the full-sample two-pointer selector — the
		// degeneracy the golden baseline pins.
		res, err := TwoPointerGridSearchKernelStabilityContext(ctx, x, y, g, k, opt.Stability)
		if err != nil {
			return BaggedResult{}, err
		}
		return BaggedResult{
			Result:  res,
			Mean:    res.H,
			Median:  res.H,
			Factor:  1,
			Bags:    r,
			BagSize: m,
		}, nil
	}

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > r {
		workers = r
	}
	bagH := make([]float64, r)
	bagCV := make([]float64, r)
	bagErr := make([]error, r)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Per-worker scratch, reused across this worker's bags.
			xb := make([]float64, m)
			yb := make([]float64, m)
			idx := make([]int, 0, m)
			seen := make(map[int]bool, m)
			lo := w * r / workers
			hi := (w + 1) * r / workers
			for b := lo; b < hi; b++ {
				if ctx.Err() != nil {
					return
				}
				// The stream is keyed by the bag index, not the worker,
				// so scheduling cannot change which rows bag b draws.
				rng := rand.New(rand.NewPCG(opt.Seed, uint64(b)+1))
				idx = sampleIndices(rng, n, m, idx, seen)
				for i, j := range idx {
					xb[i], yb[i] = x[j], y[j]
				}
				ws := AcquireWorkspace(m, g.Len())
				res, err := TwoPointerGridSearchInto(ctx, xb, yb, g, k, opt.Stability, ws)
				ws.Release()
				if err != nil {
					bagErr[b] = err
					return
				}
				bagH[b], bagCV[b] = res.H, res.CV
			}
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return BaggedResult{}, err
	}
	for _, err := range bagErr {
		if err != nil {
			return BaggedResult{}, err
		}
	}

	// Aggregate in bag order — deterministic regardless of which worker
	// produced which bag.
	var sumH, sumCV mathx.NeumaierAccumulator
	for _, h := range bagH {
		sumH.Add(h)
	}
	for _, cv := range bagCV {
		sumCV.Add(cv)
	}
	factor := math.Pow(float64(m)/float64(n), 0.2)
	mean := factor * (sumH.Sum() / float64(r))
	sorted := append([]float64(nil), bagH...)
	sort.Float64s(sorted)
	median := sorted[r/2]
	if r%2 == 0 {
		median = 0.5 * (sorted[r/2-1] + sorted[r/2])
	}
	meanCV := sumCV.Sum() / float64(r)
	// Unbiased sample variance of the per-bag CV minima, two-pass with
	// compensated accumulation: the minima are tightly clustered around
	// their mean, exactly the cancellation regime Neumaier exists for.
	var cvVar float64
	if r > 1 {
		var sumSq mathx.NeumaierAccumulator
		for _, cv := range bagCV {
			d := cv - meanCV
			sumSq.Add(d * d)
		}
		cvVar = sumSq.Sum() / float64(r-1)
	}
	h := mean
	if opt.Aggregation == AggregateMedian {
		h = factor * median
	}
	return BaggedResult{
		Result: Result{
			H:     h,
			CV:    meanCV,
			Index: -1,
		},
		Mean:    mean,
		Median:  factor * median,
		Factor:  factor,
		Bags:    r,
		BagSize: m,
		CVVar:   cvVar,
		BagH:    bagH,
	}, nil
}

// sampleIndices draws m distinct indices from [0, n) into dst using
// Floyd's algorithm — O(m) time and memory independent of n, which is
// what lets a bag touch a million-point sample without an O(n) shuffle.
// dst and seen are caller-owned scratch, reused across bags.
func sampleIndices(rng *rand.Rand, n, m int, dst []int, seen map[int]bool) []int {
	dst = dst[:0]
	clear(seen)
	for j := n - m; j < n; j++ {
		t := rng.IntN(j + 1)
		if seen[t] {
			t = j
		}
		seen[t] = true
		dst = append(dst, t)
	}
	return dst
}
