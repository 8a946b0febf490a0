package bandwidth

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/kernel"
)

func aggregationSample(n int, seed int64) (x, y []float64) {
	rng := rand.New(rand.NewSource(seed))
	x = make([]float64, n)
	y = make([]float64, n)
	for i := range x {
		x[i] = rng.Float64() * 8
		y[i] = math.Sin(x[i]) + 0.4*rng.NormFloat64()
	}
	return x, y
}

func aggregationGrid(t *testing.T) Grid {
	t.Helper()
	g, err := NewGrid(0.05, 2.0, 40)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestBaggedMedianAggregation: the Aggregation option only chooses
// which aggregate Result.H reports — Mean, Median, CVVar and BagH are
// identical across the two runs with the same seed, and the Median
// field equals the hand-computed rescaled median of the exported BagH.
func TestBaggedMedianAggregation(t *testing.T) {
	x, y := aggregationSample(600, 101)
	g := aggregationGrid(t)
	base := BaggedOptions{Bags: 9, BagSize: 150, Seed: 7}

	meanRun, err := BaggedGridSearchContext(context.Background(), x, y, g, kernel.Epanechnikov, base)
	if err != nil {
		t.Fatal(err)
	}
	medOpts := base
	medOpts.Aggregation = AggregateMedian
	medianRun, err := BaggedGridSearchContext(context.Background(), x, y, g, kernel.Epanechnikov, medOpts)
	if err != nil {
		t.Fatal(err)
	}

	if math.Float64bits(meanRun.H) != math.Float64bits(meanRun.Mean) {
		t.Errorf("mean run: H=%v is not the Mean aggregate %v", meanRun.H, meanRun.Mean)
	}
	if math.Float64bits(medianRun.H) != math.Float64bits(medianRun.Median) {
		t.Errorf("median run: H=%v is not the Median aggregate %v", medianRun.H, medianRun.Median)
	}
	if math.Float64bits(meanRun.Mean) != math.Float64bits(medianRun.Mean) ||
		math.Float64bits(meanRun.Median) != math.Float64bits(medianRun.Median) ||
		math.Float64bits(meanRun.CVVar) != math.Float64bits(medianRun.CVVar) {
		t.Error("aggregation choice changed the aggregates themselves, not just which one H reports")
	}
	for b := range meanRun.BagH {
		if math.Float64bits(meanRun.BagH[b]) != math.Float64bits(medianRun.BagH[b]) {
			t.Fatalf("bag %d winner differs between aggregation modes", b)
		}
	}

	// Hand-compute the rescaled median from the exported bag winners.
	sorted := append([]float64(nil), medianRun.BagH...)
	sort.Float64s(sorted)
	r := len(sorted)
	med := sorted[r/2]
	if r%2 == 0 {
		med = 0.5 * (sorted[r/2-1] + sorted[r/2])
	}
	if want := medianRun.Factor * med; math.Float64bits(medianRun.Median) != math.Float64bits(want) {
		t.Errorf("Median = %v, hand-computed %v", medianRun.Median, want)
	}
}

// TestBaggedCVVariance: several bags over noisy data spread their CV
// minima (variance positive, reproducible under the same seed); a
// single bag and the degenerate m == n path have no spread by
// definition.
func TestBaggedCVVariance(t *testing.T) {
	x, y := aggregationSample(600, 102)
	g := aggregationGrid(t)

	res, err := BaggedGridSearchContext(context.Background(), x, y, g, kernel.Epanechnikov, BaggedOptions{Bags: 12, BagSize: 120, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !(res.CVVar > 0) {
		t.Errorf("12 bags of noisy data report CVVar = %v, want > 0", res.CVVar)
	}
	again, err := BaggedGridSearchContext(context.Background(), x, y, g, kernel.Epanechnikov, BaggedOptions{Bags: 12, BagSize: 120, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(again.CVVar) != math.Float64bits(res.CVVar) {
		t.Errorf("same seed reproduced CVVar %v then %v", res.CVVar, again.CVVar)
	}

	one, err := BaggedGridSearchContext(context.Background(), x, y, g, kernel.Epanechnikov, BaggedOptions{Bags: 1, BagSize: 120, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if one.CVVar != 0 {
		t.Errorf("single bag reports CVVar = %v, want 0", one.CVVar)
	}

	degen, err := BaggedGridSearchContext(context.Background(), x, y, g, kernel.Epanechnikov, BaggedOptions{Bags: 4, BagSize: len(x), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if degen.CVVar != 0 {
		t.Errorf("degenerate m == n path reports CVVar = %v, want 0", degen.CVVar)
	}
	if math.Float64bits(degen.Mean) != math.Float64bits(degen.H) || math.Float64bits(degen.Median) != math.Float64bits(degen.H) {
		t.Error("degenerate path should report Mean == Median == H")
	}
}

func TestParseAggregation(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Aggregation
	}{{"", AggregateMean}, {"mean", AggregateMean}, {"median", AggregateMedian}} {
		got, err := ParseAggregation(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseAggregation(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseAggregation("mode"); err == nil {
		t.Error("ParseAggregation accepted \"mode\"")
	}
	if AggregateMean.String() != "mean" || AggregateMedian.String() != "median" {
		t.Error("Aggregation.String round-trip broken")
	}
	x, y := aggregationSample(40, 103)
	g := aggregationGrid(t)
	if _, err := BaggedGridSearchContext(context.Background(), x, y, g, kernel.Epanechnikov, BaggedOptions{Bags: 2, BagSize: 20, Aggregation: Aggregation(9)}); err == nil {
		t.Error("out-of-range Aggregation value accepted")
	}
}
