package repro

import (
	"fmt"
	"testing"

	"repro/internal/bandwidth"
	"repro/kernreg"
)

// BenchmarkTwoPointerVsSorted is the head-to-head the two-pointer sweep
// must win: the paper's sorted incremental search (per-observation
// QuickSort, O(n² log n)) against the global-sort two-pointer window
// sweep (O(n log n + k·n)) on identical data and grids. ReportAllocs
// makes the allocation story part of the result — the sorted path
// allocates its argsort scratch per call, the two-pointer path runs out
// of pooled workspaces.
//
// cmd/bwbench -twopointer runs the same cells via testing.Benchmark and
// writes BENCH_4.json; EXPERIMENTS.md quotes those numbers.
func BenchmarkTwoPointerVsSorted(b *testing.B) {
	for _, n := range []int{500, 2000, 10000} {
		for _, k := range []int{50, 500} {
			d, g := setup(b, n, k)
			b.Run(fmt.Sprintf("n=%d/k=%d/sorted", n, k), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := bandwidth.SortedGridSearch(d.X, d.Y, g); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("n=%d/k=%d/twopointer", n, k), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := bandwidth.TwoPointerGridSearch(d.X, d.Y, g); err != nil {
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

// BenchmarkTwoPointerParallel pins the parallel family's scaling point
// used in EXPERIMENTS.md.
func BenchmarkTwoPointerParallel(b *testing.B) {
	for _, n := range []int{2000, 10000} {
		d, g := setup(b, n, 50)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bandwidth.TwoPointerGridSearchParallel(d.X, d.Y, g, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
