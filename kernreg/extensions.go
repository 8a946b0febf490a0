package kernreg

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/kde"
	"repro/internal/kernel"
	"repro/internal/mvreg"
)

// Criterion selects the model-selection objective, mirroring np's
// bwmethod argument.
type Criterion int

const (
	// CriterionCV is least-squares leave-one-out cross-validation
	// (np bwmethod="cv.ls") — the paper's objective and the default.
	CriterionCV Criterion = iota
	// CriterionAICc is the corrected-AIC criterion of Hurvich, Simonoff
	// & Tsai (np bwmethod="cv.aic").
	CriterionAICc
)

// String returns the np-style name.
func (c Criterion) String() string {
	switch c {
	case CriterionCV:
		return "cv.ls"
	case CriterionAICc:
		return "cv.aic"
	default:
		return fmt.Sprintf("kernreg.Criterion(%d)", int(c))
	}
}

// WithCriterion selects the model-selection objective. CriterionAICc is
// supported by MethodSorted (Epanechnikov) and MethodNaive (any kernel),
// for the local-constant estimator.
func WithCriterion(c Criterion) Option {
	return func(cfg *config) error {
		cfg.criterion = c
		return nil
	}
}

// Estimator selects the regression type the CV objective targets,
// mirroring the R np package's regtype argument.
type Estimator int

const (
	// LocalConstant is the Nadaraya–Watson estimator (np regtype="lc"),
	// the paper's target and the default.
	LocalConstant Estimator = iota
	// LocalLinear is the local-linear estimator (np regtype="ll"); its
	// CV objective also admits the sorted incremental grid search.
	LocalLinear
)

// String returns the np-style name.
func (e Estimator) String() string {
	switch e {
	case LocalConstant:
		return "lc"
	case LocalLinear:
		return "ll"
	default:
		return fmt.Sprintf("kernreg.Estimator(%d)", int(e))
	}
}

// WithEstimator selects the regression type for SelectBandwidth.
// LocalLinear is supported by MethodSorted and MethodTwoPointer
// (Epanechnikov) and by MethodNaive (any kernel).
func WithEstimator(e Estimator) Option {
	return func(c *config) error {
		c.estimator = e
		return nil
	}
}

// MVSelection is a multivariate bandwidth selection.
type MVSelection struct {
	Bandwidths []float64
	CV         float64
	Evals      int
	Sweeps     int
}

// SelectBandwidthMV selects a bandwidth vector for a multivariate kernel
// regression of y on the rows of x by leave-one-out cross-validation with
// a product Epanechnikov kernel. With mesh=true the full Cartesian grid
// (k points per dimension) is searched exactly by the fast-sum-updating
// mesh sweep; otherwise coordinate descent over the same sweep is used,
// which scales to higher dimensions. k ≤ 0 defaults to 20 per dimension.
func SelectBandwidthMV(x [][]float64, y []float64, k int, mesh bool) (MVSelection, error) {
	return SelectBandwidthMVContext(context.Background(), x, y, k, mesh)
}

// SelectBandwidthMVContext is SelectBandwidthMV with cooperative
// cancellation, polled at sweep granularity inside the searches.
func SelectBandwidthMVContext(ctx context.Context, x [][]float64, y []float64, k int, mesh bool) (MVSelection, error) {
	s := mvreg.Sample{X: x, Y: y}
	if k <= 0 {
		k = 20
	}
	grids, err := mvreg.DefaultGrids(s, k)
	if err != nil {
		return MVSelection{}, err
	}
	var r mvreg.Result
	if mesh {
		r, err = mvreg.MeshSearchContext(ctx, s, grids, kernel.Epanechnikov)
	} else {
		r, err = mvreg.CoordinateDescentContext(ctx, s, grids, 0)
	}
	if err != nil {
		return MVSelection{}, err
	}
	return MVSelection{Bandwidths: r.H, CV: r.CV, Evals: r.Evals, Sweeps: r.Sweeps}, nil
}

// ErrDimension is returned (wrapped) by MVRegression.Predict when the
// query point's coordinate count differs from the fitted model's
// dimensionality. Test with errors.Is.
var ErrDimension = mvreg.ErrDimension

// MVRegression is a fitted multivariate kernel regression.
type MVRegression struct {
	m *mvreg.Model
}

// FitMV constructs a multivariate product-kernel regression with the
// given bandwidth vector (Epanechnikov kernel).
func FitMV(x [][]float64, y []float64, h []float64) (*MVRegression, error) {
	m, err := mvreg.New(mvreg.Sample{X: x, Y: y}, h, kernel.Epanechnikov)
	if err != nil {
		return nil, err
	}
	return &MVRegression{m: m}, nil
}

// Predict returns the estimate at the point x0; ok is false when no
// observation carries weight there. A query point whose dimensionality
// disagrees with the model's returns an error.
func (r *MVRegression) Predict(x0 []float64) (float64, bool, error) { return r.m.Predict(x0) }

// Bandwidths returns the model's bandwidth vector.
func (r *MVRegression) Bandwidths() []float64 {
	return append([]float64(nil), r.m.H...)
}

// SelectDensityBandwidthGPU selects the KDE bandwidth by least-squares
// cross-validation executed on the simulated GPU — the paper's KDE
// extension mapped onto its device pipeline. k ≤ 0 defaults to 50.
// Device capacity limits apply (k ≤ 2,048; one n×n scratch matrix).
func SelectDensityBandwidthGPU(x []float64, k int) (DensitySelection, error) {
	if k <= 0 {
		k = 50
	}
	if len(x) < 2 {
		return DensitySelection{}, kde.ErrSample
	}
	min, max := minMax(x)
	domain := max - min
	if !(domain > 0) {
		return DensitySelection{}, errors.New("kernreg: sample has zero domain")
	}
	grid := make([]float64, k)
	for j := 1; j <= k; j++ {
		grid[j-1] = domain * float64(j) / float64(k)
	}
	res, _, err := core.SelectKDEGPU(x, grid, core.GPUOptions{})
	if err != nil {
		return DensitySelection{}, err
	}
	return DensitySelection{Bandwidth: res.H, Score: res.Score, Rule: "lscv-gpu"}, nil
}

func minMax(xs []float64) (float64, float64) {
	min, max := xs[0], xs[0]
	for _, v := range xs[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}
