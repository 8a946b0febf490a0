// Package kernreg is the public API of this library: optimal bandwidth
// selection for Nadaraya–Watson kernel regression by leave-one-out
// cross-validation over a bandwidth grid, following Rohlfs & Zahran,
// "Optimal Bandwidth Selection for Kernel Regression Using a Fast Grid
// Search and a GPU" (IPPS 2017).
//
// The default selector is the paper's sorted incremental grid search:
// exact over the grid (no numerical-optimisation local minima) at
// O(n² log n) for the whole grid rather than the naive O(k·n²). Method
// options expose the naive search, the numerical optimiser the paper
// criticises, a goroutine-parallel search, and the paper's CUDA program
// executed on a simulated GPU.
//
//	sel, err := kernreg.SelectBandwidth(x, y, kernreg.GridSize(50))
//	reg, err := kernreg.Fit(x, y, sel.Bandwidth)
//	yhat, ok := reg.Predict(0.3)
package kernreg

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/bandwidth"
	"repro/internal/baselines"
	"repro/internal/kernel"
	"repro/internal/method"
	"repro/internal/regression"
)

// Method selects the bandwidth-search algorithm.
type Method int

const (
	// MethodSorted is the paper's sorted incremental grid search
	// (double precision). The default.
	MethodSorted Method = iota
	// MethodSortedParallel fans the sorted search across goroutines.
	MethodSortedParallel
	// MethodSortedF32 is the single-precision variant, bit-faithful to
	// the paper's sequential C program.
	MethodSortedF32
	// MethodNaive evaluates the CV objective independently per grid
	// point (O(k·n²)); works with every kernel.
	MethodNaive
	// MethodNumerical uses derivative-free numerical optimisation (the
	// approach of the R np package). Subject to local minima.
	MethodNumerical
	// MethodGPU runs the paper's CUDA pipeline on a simulated GPU
	// (functional mode), including its memory-capacity limits.
	MethodGPU
	// MethodGPUTiled runs the future-work tiled pipeline (no n×n
	// matrices) on the simulated GPU: identical results, O(C·n) device
	// memory.
	MethodGPUTiled
	// MethodTwoPointer replaces the per-observation sorts of
	// MethodSorted with one global sort. For the Epanechnikov and
	// Uniform kernels each candidate bandwidth is then scored by an
	// O(n) sweep of two monotone window pointers over anchored window
	// moments: O(n log n + k·n) total instead of O(n² log n), same
	// objective, same grid. Each candidate's score depends only on the
	// data and that bandwidth, so the candidates are shared across up
	// to GOMAXPROCS goroutines (capped by Workers), each claiming the
	// next one; the answer is bit-identical for any goroutine count. At
	// tens of ns per (observation, candidate) it is slower than the old
	// Θ(n²) neighbour merge once k ≳ n/2 on one core. The Triangular
	// kernel still merges each observation's neighbours on one
	// goroutine: O(n log n + n·(n+k)).
	MethodTwoPointer
	// MethodTwoPointerParallel is MethodTwoPointer restricted to the
	// Epanechnikov kernel. It is kept as a name for existing callers and
	// runs the same engine, so it is bit-identical to MethodTwoPointer.
	MethodTwoPointerParallel
	// MethodTwoPointerF32 is the single-precision two-pointer variant:
	// Program 3's arithmetic with the global-sort enumeration.
	MethodTwoPointerF32
	// MethodBagged bags the two-pointer search over r subsamples of
	// size m (Barreiro-Ures, Cao & Francisco-Fernández,
	// arXiv:2105.04134): each bag runs an exact two-pointer sweep,
	// the mean winner is rescaled by (m/n)^(1/5), and the whole
	// selection costs r bag sweeps of O(m log m + k·m) each. Configure with Bags, BagSize and Seed; with BagSize(n)
	// (or n ≤ 512 under the defaults) it degenerates to MethodTwoPointer
	// bit-identically.
	MethodBagged
)

// String returns the method name.
func (m Method) String() string {
	if r, ok := method.At(int(m)); ok {
		return r.Name
	}
	return fmt.Sprintf("kernreg.Method(%d)", int(m))
}

// ParseMethod returns the Method named by s.
func ParseMethod(s string) (Method, error) {
	if i, ok := method.Lookup(s); ok {
		return Method(i), nil
	}
	return 0, fmt.Errorf("kernreg: unknown method %q", s)
}

// configPool recycles the options struct: passing &config to the Option
// closures makes it escape, which would be the one heap allocation left
// on the Pooled fast path.
var configPool = sync.Pool{New: func() any { return new(config) }}

// config collects the selection options.
type config struct {
	method     Method
	kern       kernel.Kind
	estimator  Estimator
	criterion  Criterion
	gridSize   int
	gridMin    float64
	gridMax    float64
	workers    int
	starts     int
	bags       int
	bagSize    int
	seed       int64
	seedSet    bool
	agg        bandwidth.Aggregation
	aggSet     bool
	keepScores bool
	stable     bool
	pooled     bool
}

// bagOptsSet reports whether any bagging option was supplied, for
// rejecting them on non-bagged methods.
func (c config) bagOptsSet() bool {
	return c.bags != 0 || c.bagSize != 0 || c.seedSet || c.aggSet
}

// stability maps the stable flag to the host sweeps' summation mode.
func (c config) stability() bandwidth.Stability {
	if c.stable {
		return bandwidth.Compensated
	}
	return bandwidth.Uncompensated
}

// objective maps the estimator and criterion to the method table's
// objective.
func (c config) objective() (method.Objective, error) {
	switch {
	case c.estimator == LocalLinear && c.criterion == CriterionAICc:
		return 0, errors.New("kernreg: the AICc criterion currently supports the local-constant estimator only")
	case c.estimator == LocalLinear:
		return method.LocalLinearCV, nil
	case c.criterion == CriterionAICc:
		return method.AICc, nil
	}
	return method.CV, nil
}

// Option configures SelectBandwidth.
type Option func(*config) error

// WithMethod selects the search algorithm.
func WithMethod(m Method) Option {
	return func(c *config) error { c.method = m; return nil }
}

// WithKernel selects the kernel weighting function by name
// ("epanechnikov", "uniform", "triangular", "gaussian", "biweight",
// "triweight", "cosine"). The sorted methods require a compact
// prefix-decomposable kernel; the naive and numerical methods accept any.
func WithKernel(name string) Option {
	return func(c *config) error {
		k, err := kernel.Parse(name)
		if err != nil {
			return err
		}
		c.kern = k
		return nil
	}
}

// GridSize sets the number of candidate bandwidths (paper default: 50).
func GridSize(k int) Option {
	return func(c *config) error {
		if k < 1 {
			return errors.New("kernreg: grid size must be at least 1")
		}
		c.gridSize = k
		return nil
	}
}

// GridRange overrides the paper's default grid range (domain/k … domain
// of X) with explicit bounds.
func GridRange(min, max float64) Option {
	return func(c *config) error {
		if !(min > 0) || !(max > min) {
			return fmt.Errorf("kernreg: invalid grid range [%g, %g]", min, max)
		}
		c.gridMin, c.gridMax = min, max
		return nil
	}
}

// Workers sets the goroutine count for the parallel methods: the
// goroutines that share one MethodTwoPointer or
// MethodTwoPointerParallel grid, and MethodBagged's concurrent bag
// sweeps (0 = GOMAXPROCS). Negative counts are rejected.
func Workers(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("kernreg: workers must be non-negative, got %d", n)
		}
		c.workers = n
		return nil
	}
}

// Restarts sets the number of multi-start restarts for MethodNumerical.
func Restarts(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return errors.New("kernreg: restarts must be at least 1")
		}
		c.starts = n
		return nil
	}
}

// Bags sets the subsample count r for MethodBagged (default 20).
func Bags(r int) Option {
	return func(c *config) error {
		if r < 1 {
			return fmt.Errorf("kernreg: bags must be at least 1, got %d", r)
		}
		c.bags = r
		return nil
	}
}

// BagSize sets the subsample size m for MethodBagged. m must be at
// least 2 and at most the sample size; the default grows like n^0.7,
// clamped to [512, 4096] (and to n itself, so small samples select
// exactly).
func BagSize(m int) Option {
	return func(c *config) error {
		if m < 2 {
			return fmt.Errorf("kernreg: bag size must be at least 2, got %d", m)
		}
		c.bagSize = m
		return nil
	}
}

// Seed fixes MethodBagged's subsampling streams: equal seeds reproduce
// the selection bit-for-bit across runs and worker counts. Negative
// seeds are rejected. The default seed is 0.
func Seed(s int64) Option {
	return func(c *config) error {
		if s < 0 {
			return fmt.Errorf("kernreg: seed must be non-negative, got %d", s)
		}
		c.seed = s
		c.seedSet = true
		return nil
	}
}

// Aggregation selects how MethodBagged combines the per-bag winning
// bandwidths: "mean" (the default, the estimator of Barreiro-Ures et
// al.) or "median" (robust to bags that subsample onto a degenerate
// configuration and select an outlier bandwidth). On the degenerate
// m == n path the two coincide — one exact sweep stands for every bag.
func Aggregation(name string) Option {
	return func(c *config) error {
		a, err := bandwidth.ParseAggregation(name)
		if err != nil {
			return fmt.Errorf("kernreg: unknown aggregation %q (want \"mean\" or \"median\")", name)
		}
		c.agg = a
		c.aggSet = true
		return nil
	}
}

// KeepScores retains the full CV score vector in the Selection.
func KeepScores() Option {
	return func(c *config) error { c.keepScores = true; return nil }
}

// Stable toggles compensated (Neumaier) summation in the grid-search hot
// loops. It defaults to on: the sorted methods' running prefix sums and
// the device pipelines' score reductions are exactly the "fast sum
// updating" arithmetic whose cancellation error grows with n, and
// compensation bounds it for a few percent of extra flops. Stable(false)
// restores the paper's plain accumulation, bit-faithful to the original
// C/CUDA programs — useful for ablation and agreement studies.
// MethodNaive and MethodNumerical re-evaluate the objective from scratch
// at every bandwidth (no running sums), so the flag is a no-op there.
func Stable(on bool) Option {
	return func(c *config) error { c.stable = on; return nil }
}

// Pooled enables the zero-allocation fast path for MethodTwoPointer:
// every scratch slice — the sorted copies, the neighbour buffers, the
// score accumulator, and the candidate grid itself — comes from a
// capacity-keyed sync.Pool, so steady-state selections allocate nothing
// after warm-up. The trade-off is a leaner Selection: Grid and Scores
// are left nil (their backing memory returns to the pool before
// SelectBandwidth returns). Pooled is rejected together with
// KeepScores, with any method other than MethodTwoPointer, and with the
// LocalLinear estimator or the AICc criterion: it runs the
// local-constant CV search only.
func Pooled() Option {
	return func(c *config) error { c.pooled = true; return nil }
}

// Selection is the outcome of a bandwidth search.
type Selection struct {
	// Bandwidth is the selected smoothing parameter.
	Bandwidth float64
	// CV is the leave-one-out cross-validation score at Bandwidth.
	CV float64
	// Index is the position in the grid (-1 for MethodNumerical, which
	// searches a continuum, and for non-degenerate MethodBagged, whose
	// rescaled aggregate falls between grid points).
	Index int
	// Grid is the candidate grid used (nil for MethodNumerical).
	Grid []float64
	// Scores holds CV(h) for every grid point when KeepScores was set.
	Scores []float64
	// Method records which algorithm produced the selection.
	Method Method
	// BagCVVariance is the unbiased sample variance of the per-bag CV
	// minima for MethodBagged — the spread behind CV's mean, for
	// confidence reporting. Zero for every other method and on the
	// degenerate m == n path.
	BagCVVariance float64
}

// SelectBandwidth chooses the CV-optimal bandwidth for a Nadaraya–Watson
// regression of y on x. Defaults: Epanechnikov kernel, 50-point grid over
// the paper's default range, sorted grid search.
func SelectBandwidth(x, y []float64, opts ...Option) (Selection, error) {
	return SelectBandwidthContext(context.Background(), x, y, opts...)
}

// SelectBandwidthContext is SelectBandwidth with cooperative
// cancellation: ctx's cancellation or deadline is propagated into every
// search method's hot loop (observation granularity for the host
// searches, tile/launch granularity for the device pipelines), so an
// abandoned request stops computing instead of running to completion.
// On cancellation the zero Selection and ctx.Err() are returned; a
// completed search is bit-identical to SelectBandwidth. A nil ctx is
// treated as context.Background().
func SelectBandwidthContext(ctx context.Context, x, y []float64, opts ...Option) (Selection, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cp := configPool.Get().(*config)
	defer configPool.Put(cp)
	*cp = config{method: MethodSorted, kern: kernel.Epanechnikov, gridSize: 50, stable: true}
	for _, opt := range opts {
		if err := opt(cp); err != nil {
			return Selection{}, err
		}
	}
	c := *cp
	if err := validateSample(x, y); err != nil {
		return Selection{}, err
	}
	if err := ctx.Err(); err != nil {
		return Selection{}, err
	}
	row, ok := method.At(int(c.method))
	if !ok {
		return Selection{}, fmt.Errorf("kernreg: unsupported method %v", c.method)
	}
	if c.method != MethodBagged && c.bagOptsSet() {
		return Selection{}, fmt.Errorf("kernreg: Bags, BagSize and Seed apply to MethodBagged only, not %v", c.method)
	}
	obj, err := c.objective()
	if err != nil {
		return Selection{}, err
	}
	if err := row.Check(obj, c.kern); err != nil {
		return Selection{}, fmt.Errorf("kernreg: %w", err)
	}
	if c.pooled {
		if c.method != MethodTwoPointer || obj != method.CV {
			return Selection{}, fmt.Errorf("kernreg: Pooled supports MethodTwoPointer with local-constant CV only, not %v with %s", c.method, obj)
		}
		if c.keepScores {
			return Selection{}, errors.New("kernreg: Pooled and KeepScores are mutually exclusive (scores live in pooled memory)")
		}
		return selectTwoPointerPooled(ctx, x, y, c)
	}
	if c.method == MethodNumerical {
		return selectNumerical(ctx, x, y, c)
	}
	g, err := buildGrid(x, c)
	if err != nil {
		return Selection{}, err
	}
	var r bandwidth.Result
	var bagCVVar float64
	if c.method == MethodBagged {
		var br bandwidth.BaggedResult
		br, err = bandwidth.BaggedGridSearchContext(ctx, x, y, g, c.kern, bandwidth.BaggedOptions{
			Bags:        c.bags,
			BagSize:     c.bagSize,
			Seed:        uint64(c.seed),
			Workers:     c.workers,
			Stability:   c.stability(),
			Aggregation: c.agg,
		})
		// Non-degenerate bags report Index -1: the rescaled aggregate is
		// a continuum value, not a grid point. The degenerate m == n path
		// carries the exact sweep's index and scores through unchanged.
		r, bagCVVar = br.Result, br.CVVar
	} else {
		r, err = row.Search(obj).Run(ctx, x, y, g, method.Spec{
			Kernel:     c.kern,
			Stability:  c.stability(),
			Workers:    c.workers,
			KeepScores: c.keepScores,
		})
	}
	if err != nil {
		return Selection{}, err
	}
	sel := Selection{
		Bandwidth:     r.H,
		CV:            r.CV, // for AICc, the criterion value
		Index:         r.Index,
		Grid:          append([]float64(nil), g.H...),
		Method:        c.method,
		BagCVVariance: bagCVVar,
	}
	if c.keepScores {
		sel.Scores = r.Scores
	}
	return sel, nil
}

// validateSample rejects structurally invalid input at the public API
// boundary — mismatched lengths, fewer than two observations, NaN or
// ±Inf values — with a descriptive error instead of letting a non-finite
// value poison every CV score and surface as an arbitrary selection.
func validateSample(x, y []float64) error {
	if len(x) != len(y) {
		return fmt.Errorf("kernreg: X has %d observations, Y has %d", len(x), len(y))
	}
	if len(x) < 2 {
		return fmt.Errorf("kernreg: need at least 2 observations, have %d", len(x))
	}
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("kernreg: X[%d] = %g is not finite", i, v)
		}
		if w := y[i]; math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("kernreg: Y[%d] = %g is not finite", i, w)
		}
	}
	return nil
}

func buildGrid(x []float64, c config) (bandwidth.Grid, error) {
	if c.gridMin > 0 {
		return bandwidth.NewGrid(c.gridMin, c.gridMax, c.gridSize)
	}
	return bandwidth.DefaultGrid(x, c.gridSize)
}

// selectTwoPointerPooled is the Pooled() fast path: the grid, the sorted
// copies, the neighbour buffers, and the score accumulator all live in a
// pooled workspace, so a warm call performs zero heap allocations. The
// Selection carries no Grid/Scores — their backing memory returns to the
// pool here.
func selectTwoPointerPooled(ctx context.Context, x, y []float64, c config) (Selection, error) {
	ws := bandwidth.AcquireWorkspace(len(x), c.gridSize)
	defer ws.Release()
	var g bandwidth.Grid
	var err error
	if c.gridMin > 0 {
		g, err = bandwidth.NewGridInto(c.gridMin, c.gridMax, c.gridSize, ws.GridBuf(c.gridSize))
	} else {
		g, err = bandwidth.DefaultGridInto(x, c.gridSize, ws.GridBuf(c.gridSize))
	}
	if err != nil {
		return Selection{}, err
	}
	r, err := bandwidth.TwoPointerGridSearchInto(ctx, x, y, g, c.kern, c.stability(), ws)
	if err != nil {
		return Selection{}, err
	}
	return Selection{Bandwidth: r.H, CV: r.CV, Index: r.Index, Method: c.method}, nil
}

func selectNumerical(ctx context.Context, x, y []float64, c config) (Selection, error) {
	opt := baselines.Options{Kernel: c.kern, Starts: c.starts, Workers: c.workers}
	if c.gridMin > 0 {
		opt.Lo, opt.Hi = c.gridMin, c.gridMax
	}
	var r baselines.Result
	var err error
	if c.workers > 1 {
		r, err = baselines.SelectNumericalParallelContext(ctx, x, y, opt)
	} else {
		r, err = baselines.SelectNumericalContext(ctx, x, y, opt)
	}
	if err != nil {
		return Selection{}, err
	}
	return Selection{Bandwidth: r.H, CV: r.CV, Index: -1, Method: MethodNumerical}, nil
}

// Regression is a fitted Nadaraya–Watson kernel regression.
type Regression struct {
	m *regression.Model
}

// Fit constructs a kernel regression of y on x with bandwidth h and the
// Epanechnikov kernel. Use FitKernel to choose another kernel.
func Fit(x, y []float64, h float64) (*Regression, error) {
	return FitKernel(x, y, h, "epanechnikov")
}

// FitKernel is Fit with an explicit kernel name.
func FitKernel(x, y []float64, h float64, kernelName string) (*Regression, error) {
	k, err := kernel.Parse(kernelName)
	if err != nil {
		return nil, err
	}
	m, err := regression.New(x, y, h, k)
	if err != nil {
		return nil, err
	}
	return &Regression{m: m}, nil
}

// Bandwidth returns the model's bandwidth.
func (r *Regression) Bandwidth() float64 { return r.m.Bandwidth }

// Predict returns the estimated conditional mean at x0; ok is false when
// no observation falls within the bandwidth (the estimate is then NaN).
func (r *Regression) Predict(x0 float64) (value float64, ok bool) {
	return r.m.Predict(x0)
}

// PredictGrid evaluates the regression at each point of xs.
func (r *Regression) PredictGrid(xs []float64) []float64 {
	return r.m.PredictGrid(xs)
}

// PredictLocalLinear returns the local-linear estimate at x0, which
// removes the local-constant estimator's boundary bias.
func (r *Regression) PredictLocalLinear(x0 float64) (value float64, ok bool) {
	return r.m.PredictLocalLinear(x0)
}

// PredictLocalPoly returns the degree-p local polynomial estimate at x0
// (degree 0 = Nadaraya–Watson, 1 = local linear, up to 5). Singular local
// designs degrade gracefully to the highest solvable degree.
func (r *Regression) PredictLocalPoly(x0 float64, degree int) (value float64, ok bool) {
	return r.m.PredictLocalPoly(x0, degree)
}

// Derivative returns the nonparametric marginal effect ∂E[Y|X=x]/∂x at
// x0 (the local-linear slope); ok is false where the slope is
// unidentified.
func (r *Regression) Derivative(x0 float64) (value float64, ok bool) {
	return r.m.Derivative(x0)
}

// CVScore returns the leave-one-out cross-validation score of the fitted
// bandwidth.
func (r *Regression) CVScore() float64 { return r.m.CVScore() }

// EffectiveN returns the kernel-weighted effective number of observations
// contributing to the estimate at x0.
func (r *Regression) EffectiveN(x0 float64) float64 { return r.m.EffectiveN(x0) }

// Band is a pointwise confidence band around the fitted curve.
type Band struct {
	X, Fit, Lower, Upper []float64
}

// ConfidenceBand returns pointwise confidence bands over xs at normal
// critical value z (e.g. 1.96 for 95%), using leave-one-out residuals for
// the local variance — the LOO-CV confidence intervals the paper lists as
// a direct extension of its machinery.
func (r *Regression) ConfidenceBand(xs []float64, z float64) (Band, error) {
	b, err := r.m.ConfidenceBand(xs, z)
	if err != nil {
		return Band{}, err
	}
	return Band{X: b.X, Fit: b.Fit, Lower: b.Lower, Upper: b.Upper}, nil
}
