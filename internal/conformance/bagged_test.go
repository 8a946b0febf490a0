package conformance

import (
	"context"
	"math"
	"strconv"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/data"
	"repro/internal/kernel"
	"repro/internal/mathx"
	"repro/kernreg"
)

// Statistical battery for the bagged selector, at sample sizes where
// the full-sample two-pointer sweep is still feasible as a reference.
// The documented contract, stronger than the harness-wide policy of
// policy.go:
//
//   - On the smooth DGPs at n ∈ {2000, 10000}, the bagged bandwidth
//     (16 bags of n/4) lands within baggedRelTol relative distance of
//     the full-sample grid winner, and the full-sample objective at the
//     bagged h is within baggedCVInflation of the exact minimum.
//   - Changing the seed moves the answer, but keeps it inside the same
//     band — the estimate's variability is bounded, not hidden.
//   - The same seed reproduces the selection bit for bit.
//   - r = 1, m = n degenerates to the exact selector bit-identically.
//
// baggedRelTol = 0.5 is calibrated with ≥ 25% headroom over the worst
// measured deviation across DGPs, sizes and seeds (paper at n = 10000
// measures ≈ 0.24: the raw bag mean matches the full-sample winner and
// the (m/n)^(1/5) rescale accounts for most of the gap, because the
// CV-optimal h of these fixed-domain DGPs shrinks slower than the
// asymptotic rate over this n range). Two DGPs get documented
// exceptions at n = 2000, where the h-band is not the right metric but
// near-optimality still is (measured CV inflation ≤ 1.011 on every
// cell): sine's CV surface has near-tied minima at the harmonics
// (measured 0.56, tolerance 0.75), and clustered's bag CV surface is
// reshaped by the sparser within-cluster spacing at m = 500, parking
// the winner on a different, equally good plateau (measured 4.1 — the
// h-band is skipped and the CV-inflation criterion alone applies).
const (
	baggedRelTol      = 0.5
	baggedRelTolSine  = 0.75
	baggedCVInflation = 1.5
)

// baggedBatterySizes returns the reference sample sizes; the expensive
// n = 10000 column (a ~1 s full-sample sweep per DGP, several under
// -race) only runs in long mode.
func baggedBatterySizes(t *testing.T) []int {
	if testing.Short() {
		return []int{2000}
	}
	return []int{2000, 10000}
}

// baggedRefOpts are the battery's fixed bagging parameters: enough bags
// that the mean is stable, m = n/4 so subsampling is genuinely at work.
func baggedRefOpts(n int, seed uint64) bandwidth.BaggedOptions {
	return bandwidth.BaggedOptions{Bags: 16, BagSize: n / 4, Seed: seed}
}

func batteryGrid(t *testing.T, x []float64) bandwidth.Grid {
	t.Helper()
	min, max := paperRange(x, 50)
	g, err := bandwidth.NewGrid(min, max, 50)
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	return g
}

func TestBaggedStatisticalTolerance(t *testing.T) {
	// relTol is the per-DGP h-band; 0 disables it (CV-inflation check
	// only), per the calibration note on the constants above.
	dgps := []struct {
		name   string
		g      data.DGP
		relTol float64
	}{
		{"paper", data.Paper, baggedRelTol},
		{"sine", data.Sine, baggedRelTolSine},
		{"step", data.Step, baggedRelTol},
		{"hetero", data.Hetero, baggedRelTol},
		{"linear", data.Linear, baggedRelTol},
		{"clustered", data.Clustered, 0},
	}
	for _, n := range baggedBatterySizes(t) {
		for _, dgp := range dgps {
			t.Run(dgp.name+"/"+strconv.Itoa(n), func(t *testing.T) {
				d := data.Generate(dgp.g, n, 20170529)
				g := batteryGrid(t, d.X)
				full, err := bandwidth.TwoPointerGridSearchKernelStabilityContext(context.Background(), d.X, d.Y, g, kernel.Epanechnikov, bandwidth.Compensated)
				if err != nil {
					t.Fatalf("full-sample sweep: %v", err)
				}
				bag, err := bandwidth.BaggedGridSearchContext(context.Background(), d.X, d.Y, g, kernel.Epanechnikov, baggedRefOpts(n, 1))
				if err != nil {
					t.Fatalf("bagged sweep: %v", err)
				}
				rel := math.Abs(bag.H-full.H) / full.H
				t.Logf("n=%d: full h=%.6g bagged h=%.6g rel=%.3f (tol %.2f)", n, full.H, bag.H, rel, dgp.relTol)
				if dgp.relTol > 0 && rel > dgp.relTol {
					t.Errorf("bagged h %g deviates from full-sample h %g by %.3f (> %.2f)",
						bag.H, full.H, rel, dgp.relTol)
				}
				// Near-optimality: the full-sample objective at the bagged
				// h must not regress past the documented inflation.
				ref := bandwidth.CVScore(d.X, d.Y, bag.H, kernel.Epanechnikov)
				if !mathx.IsFinite(ref) || ref > baggedCVInflation*full.CV {
					t.Errorf("objective at bagged h: %g, more than %.2f× the exact minimum %g",
						ref, baggedCVInflation, full.CV)
				}
				if bag.Index != -1 || bag.Scores != nil {
					t.Errorf("non-degenerate bagged result reports grid artifacts: index %d, %d scores",
						bag.Index, len(bag.Scores))
				}
				if len(bag.BagH) != 16 || bag.Bags != 16 || bag.BagSize != n/4 {
					t.Errorf("bagged result misreports its parameters: %d winners, r=%d, m=%d",
						len(bag.BagH), bag.Bags, bag.BagSize)
				}
				wantFactor := math.Pow(float64(n/4)/float64(n), 0.2)
				if bag.Factor != wantFactor {
					t.Errorf("rescale factor %g, want (m/n)^(1/5) = %g", bag.Factor, wantFactor)
				}
			})
		}
	}
}

// TestBaggedAdversarialCorpus runs the bagged selector over the entire
// adversarial corpus under the statistical policy — the same cells the
// agreement matrix checks, pinned here so `-run TestBagged` exercises
// them in the race job without dragging in the device simulations.
func TestBaggedAdversarialCorpus(t *testing.T) {
	var sel Selector
	for _, s := range Registry() {
		if s.Name == "bagged" {
			sel = s
		}
	}
	if sel.Run == nil {
		t.Fatal("bagged selector not registered")
	}
	oracle := oracleFor(LocalConstant)
	for _, d := range Corpus() {
		if d.Heavy && testing.Short() {
			continue
		}
		if d.N() < sel.MinN {
			continue
		}
		t.Run(d.Name, func(t *testing.T) {
			g, err := d.Grid()
			if err != nil {
				t.Fatalf("grid: %v", err)
			}
			ref, err := oracle.Run(context.Background(), d.X, d.Y, g)
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			got, err := sel.Run(context.Background(), d.X, d.Y, g)
			if err != nil {
				t.Fatalf("bagged: %v", err)
			}
			if err := checkStatistical(got, ref, d, g); err != nil {
				t.Errorf("statistical policy violated: %v", err)
			}
		})
	}
}

// TestBaggedSeedMetamorphic pins the two seed properties: a different
// seed genuinely moves the estimate (the subsampling is real), and
// every seed stays inside the documented band around the full-sample
// winner; the same seed reproduces the selection bit for bit.
func TestBaggedSeedMetamorphic(t *testing.T) {
	n := 2000
	d := data.GeneratePaper(n, 20170529)
	g := batteryGrid(t, d.X)
	full, err := bandwidth.TwoPointerGridSearchKernelStabilityContext(context.Background(), d.X, d.Y, g, kernel.Epanechnikov, bandwidth.Compensated)
	if err != nil {
		t.Fatalf("full-sample sweep: %v", err)
	}
	seen := map[float64]bool{}
	for _, seed := range []uint64{1, 2, 20170529} {
		bag, err := bandwidth.BaggedGridSearchContext(context.Background(), d.X, d.Y, g, kernel.Epanechnikov, baggedRefOpts(n, seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rel := math.Abs(bag.H-full.H) / full.H; rel > baggedRelTol {
			t.Errorf("seed %d: bagged h %g deviates from full-sample h %g by %.3f (> %.2f)",
				seed, bag.H, full.H, rel, baggedRelTol)
		}
		again, err := bandwidth.BaggedGridSearchContext(context.Background(), d.X, d.Y, g, kernel.Epanechnikov, baggedRefOpts(n, seed))
		if err != nil {
			t.Fatalf("seed %d repeat: %v", seed, err)
		}
		if again.H != bag.H || again.CV != bag.CV || again.Median != bag.Median {
			t.Errorf("seed %d is not reproducible: h %v vs %v", seed, bag.H, again.H)
		}
		seen[bag.H] = true
	}
	if len(seen) < 2 {
		t.Errorf("all seeds produced the identical bandwidth %v — subsampling appears inert", seen)
	}
}

// TestBaggedDegeneratesToExact pins the bit-identity of the r=1, m=n
// path against the exact two-pointer selector, through both the
// internal API and the public kernreg surface.
func TestBaggedDegeneratesToExact(t *testing.T) {
	d := data.GeneratePaper(2000, 20170529)
	g := batteryGrid(t, d.X)
	exact, err := bandwidth.TwoPointerGridSearchKernelStabilityContext(context.Background(), d.X, d.Y, g, kernel.Epanechnikov, bandwidth.Compensated)
	if err != nil {
		t.Fatalf("exact sweep: %v", err)
	}
	bag, err := bandwidth.BaggedGridSearchContext(context.Background(), d.X, d.Y, g, kernel.Epanechnikov, bandwidth.BaggedOptions{Bags: 1, BagSize: len(d.X), Seed: 7})
	if err != nil {
		t.Fatalf("degenerate bagged: %v", err)
	}
	if bag.H != exact.H || bag.CV != exact.CV || bag.Index != exact.Index {
		t.Errorf("degenerate bagged (%g, %g, %d) differs from exact (%g, %g, %d)",
			bag.H, bag.CV, bag.Index, exact.H, exact.CV, exact.Index)
	}
	if bag.Factor != 1 || bag.Mean != exact.H || bag.Median != exact.H {
		t.Errorf("degenerate aggregates differ from the exact winner: factor=%g mean=%g median=%g",
			bag.Factor, bag.Mean, bag.Median)
	}
	for j, s := range bag.Scores {
		if s != exact.Scores[j] {
			t.Fatalf("degenerate score[%d] %g differs from exact %g", j, s, exact.Scores[j])
		}
	}
	// Public surface: MethodBagged with m=n must equal MethodTwoPointer.
	a, err := kernreg.SelectBandwidth(d.X, d.Y,
		kernreg.WithMethod(kernreg.MethodTwoPointer), kernreg.GridRange(g.Min(), g.Max()), kernreg.GridSize(g.Len()))
	if err != nil {
		t.Fatalf("kernreg twopointer: %v", err)
	}
	b, err := kernreg.SelectBandwidth(d.X, d.Y,
		kernreg.WithMethod(kernreg.MethodBagged), kernreg.GridRange(g.Min(), g.Max()), kernreg.GridSize(g.Len()),
		kernreg.Bags(1), kernreg.BagSize(len(d.X)))
	if err != nil {
		t.Fatalf("kernreg bagged: %v", err)
	}
	if a.Bandwidth != b.Bandwidth || a.CV != b.CV || a.Index != b.Index {
		t.Errorf("public degenerate bagged (%g, %g, %d) differs from twopointer (%g, %g, %d)",
			b.Bandwidth, b.CV, b.Index, a.Bandwidth, a.CV, a.Index)
	}
}
