package baselines

import (
	"context"
	"math"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/data"
	"repro/internal/kernel"
	"repro/internal/mathx"
)

func TestSelectNumericalFindsReasonableBandwidth(t *testing.T) {
	d := data.GeneratePaper(300, 1)
	r, err := SelectNumerical(d.X, d.Y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.H <= 0 || r.H > 1.5 {
		t.Errorf("selected h = %v outside plausible range", r.H)
	}
	if r.Evals <= 0 {
		t.Error("evaluation count missing")
	}
	// The CV at the numerical optimum should be no worse than a coarse
	// grid's best (same objective, finer search).
	g, _ := bandwidth.DefaultGrid(d.X, 25)
	grid, _ := bandwidth.NaiveGridSearchContext(context.Background(), d.X, d.Y, g, kernel.Epanechnikov)
	if r.CV > grid.CV*1.05 {
		t.Errorf("numerical CV %v much worse than grid CV %v", r.CV, grid.CV)
	}
}

func TestParallelMatchesSequentialObjective(t *testing.T) {
	d := data.GeneratePaper(400, 3)
	for _, h := range []float64{0.05, 0.2, 0.8} {
		seq := naiveCV(d.X, d.Y, h, kernel.Epanechnikov, 1)
		for _, workers := range []int{2, 3, 8} {
			par := naiveCV(d.X, d.Y, h, kernel.Epanechnikov, workers)
			if mathx.RelDiff(seq, par) > 1e-12 {
				t.Errorf("h=%v workers=%d: %v vs %v", h, workers, par, seq)
			}
		}
	}
}

func TestSelectNumericalParallelAgrees(t *testing.T) {
	d := data.GeneratePaper(250, 7)
	seq, err := SelectNumerical(d.X, d.Y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := SelectNumericalParallel(d.X, d.Y, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(seq.H-par.H) > 1e-6 {
		t.Errorf("parallel optimiser diverged: %v vs %v", par.H, seq.H)
	}
}

func TestMethods(t *testing.T) {
	d := data.GeneratePaper(200, 9)
	for _, m := range []Method{Brent, GoldenSection, NelderMead} {
		r, err := SelectNumerical(d.X, d.Y, Options{Method: m})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if r.H <= 0 {
			t.Errorf("%v: h = %v", m, r.H)
		}
		if m.String() == "" {
			t.Errorf("%v has no name", m)
		}
	}
	if Method(9).String() == "" {
		t.Error("unknown method should stringify")
	}
}

func TestLocalMinimumSensitivity(t *testing.T) {
	// The paper's reliability criticism: on a wavy DGP the CV surface is
	// multimodal, and the single-start optimiser can be beaten by a grid
	// search. We assert the weaker, always-true property: multi-start
	// never does worse than single-start, and the grid result is at
	// least as good as any optimiser basin it brackets.
	d := data.Generate(data.Sine, 300, 12)
	single, err := SelectNumerical(d.X, d.Y, Options{Method: NelderMead})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := SelectNumerical(d.X, d.Y, Options{Method: NelderMead, Starts: 8})
	if err != nil {
		t.Fatal(err)
	}
	if multi.CV > single.CV+1e-12 {
		t.Errorf("multi-start (%v) worse than single-start (%v)", multi.CV, single.CV)
	}
	if multi.Evals <= single.Evals {
		t.Error("multi-start should spend more evaluations")
	}
	g, _ := bandwidth.DefaultGrid(d.X, 200)
	grid, err := bandwidth.SortedGridSearchKernelStabilityContext(context.Background(), d.X, d.Y, g, kernel.Epanechnikov, bandwidth.Compensated)
	if err != nil {
		t.Fatal(err)
	}
	// A 200-point grid search should land within a hair of the best
	// optimiser run (it cannot be fooled by basins).
	if grid.CV > multi.CV*1.02 && grid.CV > multi.CV+1e-6 {
		t.Errorf("grid CV %v much worse than multi-start %v", grid.CV, multi.CV)
	}
}

func TestBracketDefaults(t *testing.T) {
	d := data.GeneratePaper(100, 2)
	o := Options{}
	lo, hi := o.bracket(d.X)
	domain := 0.0
	min, max := d.X[0], d.X[0]
	for _, x := range d.X {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	domain = max - min
	if math.Abs(hi-domain) > 1e-12 || math.Abs(lo-domain/100) > 1e-12 {
		t.Errorf("default bracket [%v, %v], want [domain/100, domain]", lo, hi)
	}
	o2 := Options{Lo: 0.2, Hi: 0.4}
	lo2, hi2 := o2.bracket(d.X)
	if lo2 != 0.2 || hi2 != 0.4 {
		t.Error("explicit bracket ignored")
	}
}

func TestValidation(t *testing.T) {
	if _, err := SelectNumerical([]float64{1, 2}, []float64{1}, Options{}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := SelectNumericalParallel([]float64{1}, []float64{1}, Options{}); err == nil {
		t.Error("single observation should fail")
	}
}

func TestNaiveCVInvalidBandwidth(t *testing.T) {
	d := data.GeneratePaper(50, 1)
	if !math.IsInf(naiveCV(d.X, d.Y, 0, kernel.Epanechnikov, 1), 1) {
		t.Error("h=0 should be +Inf")
	}
	if !math.IsInf(naiveCV(d.X, d.Y, -0.5, kernel.Epanechnikov, 4), 1) {
		t.Error("negative h should be +Inf")
	}
}

func TestNumericalAgreesWithFineGridOnSmoothSurface(t *testing.T) {
	// On the paper's DGP the CV surface near the optimum is smooth and
	// unimodal enough that Brent and a fine grid land close together.
	d := data.GeneratePaper(400, 5)
	num, err := SelectNumerical(d.X, d.Y, Options{Starts: 4})
	if err != nil {
		t.Fatal(err)
	}
	g, _ := bandwidth.DefaultGrid(d.X, 500)
	grid, err := bandwidth.SortedGridSearchKernelStabilityContext(context.Background(), d.X, d.Y, g, kernel.Epanechnikov, bandwidth.Compensated)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(num.H-grid.H) > 0.02 {
		t.Errorf("numerical h = %v, fine grid h = %v", num.H, grid.H)
	}
}
