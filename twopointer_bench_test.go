package repro

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/data"
	"repro/internal/kernel"
	"repro/kernreg"
)

// BenchmarkTwoPointerVsSorted is the head-to-head the two-pointer sweep
// must win: the float64 sorted incremental search (a left/right-run
// merge per observation, O(n log n + n·(n + k))) against the two-pointer
// window sweep (O(n log n + k·n)) on identical data and grids. Both run
// out of pooled workspaces; ReportAllocs shows what each copies out.
//
// BENCH_4.json is a record of these cells from a retired JSON
// generator; EXPERIMENTS.md quotes it, and this benchmark is its live
// equivalent. BENCH_4 predates the merge in the sorted search: its
// sorted cells timed a QuickSort per observation, O(n² log n).
func BenchmarkTwoPointerVsSorted(b *testing.B) {
	for _, n := range []int{500, 2000, 10000} {
		for _, k := range []int{50, 500} {
			d, g := setup(b, n, k)
			b.Run(fmt.Sprintf("n=%d/k=%d/sorted", n, k), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := bandwidth.SortedGridSearchKernelStabilityContext(context.Background(), d.X, d.Y, g, kernel.Epanechnikov, bandwidth.Compensated); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("n=%d/k=%d/twopointer", n, k), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := bandwidth.TwoPointerGridSearchKernelStabilityContext(context.Background(), d.X, d.Y, g, kernel.Epanechnikov, bandwidth.Compensated); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTwoPointerPooledSelect is the zero-allocation claim for the
// public API: steady-state kernreg.SelectBandwidth with Pooled() must
// report 0 allocs/op (the first iteration warms the workspace pool; b.N
// amortises it away).
func BenchmarkTwoPointerPooledSelect(b *testing.B) {
	d, _ := setup(b, 2000, 50)
	opts := []kernreg.Option{kernreg.WithMethod(kernreg.MethodTwoPointer), kernreg.GridSize(50), kernreg.Pooled()}
	if _, err := kernreg.SelectBandwidth(d.X, d.Y, opts...); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kernreg.SelectBandwidth(d.X, d.Y, opts...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTwoPointerSplit compares the two ways one window-sweep grid
// is scored (EXPERIMENTS.md "Splitting the window sweep by candidate"):
// "sequential" is TwoPointerGridSearchInto on the calling goroutine,
// "split" is the allocating entry point, which shares the grid across
// up to GOMAXPROCS goroutines. The callers=2 cells run two selections
// at once and report wall time per selection, the saturated case where
// the split's helpers find no idle core. Run it at -cpu 1,2.
func BenchmarkTwoPointerSplit(b *testing.B) {
	ctx := context.Background()
	sequential := func(d data.Dataset, g bandwidth.Grid) error {
		ws := bandwidth.AcquireWorkspace(len(d.X), g.Len())
		defer ws.Release()
		_, err := bandwidth.TwoPointerGridSearchInto(ctx, d.X, d.Y, g, kernel.Epanechnikov, bandwidth.Compensated, ws)
		return err
	}
	split := func(d data.Dataset, g bandwidth.Grid) error {
		_, err := bandwidth.TwoPointerGridSearchKernelStabilityContext(context.Background(), d.X, d.Y, g, kernel.Epanechnikov, bandwidth.Compensated)
		return err
	}
	cells := []struct{ n, k, callers int }{
		{256, 50, 1}, {2000, 50, 1}, {2000, 512, 1}, {2000, 1024, 1},
		{2000, 50, 2}, {2000, 512, 2},
	}
	for _, c := range cells {
		d, g := setup(b, c.n, c.k)
		for _, e := range []struct {
			name string
			run  func(data.Dataset, bandwidth.Grid) error
		}{{"sequential", sequential}, {"split", split}} {
			b.Run(fmt.Sprintf("n=%d/k=%d/callers=%d/%s", c.n, c.k, c.callers, e.name), func(b *testing.B) {
				var next atomic.Int64
				var wg sync.WaitGroup
				for w := 0; w < c.callers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for next.Add(1) <= int64(b.N) {
							if err := e.run(d, g); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
			})
		}
	}
}
