package repro

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/gpu"
	"repro/internal/kernel"
	"repro/internal/knn"
	"repro/internal/mvreg"
	"repro/internal/regression"
)

// Extension benchmarks: the paper's §II commitments and future-work items
// built in this repository, measured alongside the headline benchmarks.

// BenchmarkExtension_LocalLinearCV compares the sorted local-linear grid
// search (nine prefix sums per observation) with the naive per-bandwidth
// evaluation — the "regtype=ll" analogue of the paper's contribution.
func BenchmarkExtension_LocalLinearCV(b *testing.B) {
	d, g := setup(b, 1000, benchK)
	b.Run("sorted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bandwidth.SortedGridSearchLocalLinearStabilityContext(context.Background(), d.X, d.Y, g, bandwidth.Compensated); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bandwidth.NaiveGridSearchLocalLinearContext(context.Background(), d.X, d.Y, g, kernel.Epanechnikov); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExtension_Multivariate compares the exact bandwidth mesh with
// coordinate descent (sorted sweep per dimension) on a bivariate sample.
func BenchmarkExtension_Multivariate(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	n := 300
	s := mvreg.Sample{X: make([][]float64, n), Y: make([]float64, n)}
	for i := 0; i < n; i++ {
		a, c := rng.Float64(), rng.Float64()
		s.X[i] = []float64{a, c}
		s.Y[i] = a + c*c + 0.1*rng.NormFloat64()
	}
	grids, err := mvreg.DefaultGrids(s, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("mesh-100-cells", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mvreg.MeshSearch(s, grids, kernel.Epanechnikov); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("coordinate-descent", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mvreg.CoordinateDescent(s, grids, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExtension_KDEGPU runs the KDE LSCV pipeline on the simulated
// device, reporting the modelled device seconds.
func BenchmarkExtension_KDEGPU(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{200, 500, 1000} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()
		}
		grid := make([]float64, benchK)
		for j := 1; j <= benchK; j++ {
			grid[j-1] = float64(j) / benchK
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var model float64
			for i := 0; i < b.N; i++ {
				_, rep, err := core.SelectKDEGPU(x, grid, core.GPUOptions{})
				if err != nil {
					b.Fatal(err)
				}
				model = rep.ModelSeconds
			}
			b.ReportMetric(model, "model-sec/op")
		})
	}
}

// BenchmarkExtension_TiledGPUModel costs the tiled pipeline (the paper's
// future-work design without n×n matrices) at sizes the original cannot
// reach, reporting modelled device seconds.
func BenchmarkExtension_TiledGPUModel(b *testing.B) {
	props := gpu.TeslaS10()
	for _, n := range []int{20000, 50000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var sec float64
			for i := 0; i < b.N; i++ {
				plan, _, err := core.PlanGPUTiled(n, benchK, 0, props)
				if err != nil {
					b.Fatal(err)
				}
				sec = plan.Seconds
			}
			b.ReportMetric(sec, "model-sec/op")
		})
	}
}

// BenchmarkExtension_TiledFunctional measures the functional tiled
// pipeline against the untiled one at a size both handle, confirming the
// tiles add no arithmetic.
func BenchmarkExtension_TiledFunctional(b *testing.B) {
	d, g := setup(b, 500, benchK)
	b.Run("untiled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.SelectGPU(d.X, d.Y, g, core.GPUOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tiled-chunk-128", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, _, err := core.SelectGPUTiled(d.X, d.Y, g, core.TiledOptions{ChunkSize: 128}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExtension_AICc compares the sorted AICc sweep with the naive
// per-bandwidth evaluation (np's bwmethod="cv.aic").
func BenchmarkExtension_AICc(b *testing.B) {
	d, g := setup(b, 1000, benchK)
	b.Run("sorted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bandwidth.SortedGridSearchAICc(d.X, d.Y, g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bandwidth.NaiveGridSearchAICc(d.X, d.Y, g, kernel.Epanechnikov); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExtension_KNNSelect measures the k-NN cross-validation sweep:
// the entire CV curve over k = 1..100 in one sorted pass per observation.
func BenchmarkExtension_KNNSelect(b *testing.B) {
	d := data.GeneratePaper(1000, 42)
	for i := 0; i < b.N; i++ {
		if _, err := knn.SelectK(d.X, d.Y, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtension_LocalPoly measures prediction cost by polynomial
// degree.
func BenchmarkExtension_LocalPoly(b *testing.B) {
	d := data.GeneratePaper(2000, 42)
	m, err := regression.New(d.X, d.Y, 0.1, kernel.Epanechnikov)
	if err != nil {
		b.Fatal(err)
	}
	for _, degree := range []int{0, 1, 2, 3} {
		b.Run(fmt.Sprintf("degree=%d", degree), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := m.PredictLocalPoly(0.5, degree); !ok {
					b.Fatal("prediction failed")
				}
			}
		})
	}
}
