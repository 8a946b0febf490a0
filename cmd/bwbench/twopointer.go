package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/data"
	"repro/internal/kernel"
)

// The -twopointer mode: a machine-readable head-to-head of the sorted
// incremental grid search (a neighbour merge per observation,
// O(n log n + n·(n + k)); a QuickSort per observation, O(n² log n), when
// BENCH_4.json was recorded) against the two-pointer window sweep,
// O(n log n + k·n). Each cell
// is measured with testing.Benchmark so ns/op and allocs/op come from
// the standard benchmark machinery, then the whole grid is written as
// JSON (BENCH_4.json in the repository root records one such run).

// twoPointerCell is one (n, k, algorithm) measurement.
type twoPointerCell struct {
	N       int     `json:"n"`
	K       int     `json:"k"`
	Algo    string  `json:"algo"`
	NsPerOp int64   `json:"ns_per_op"`
	Allocs  int64   `json:"allocs_per_op"`
	Bytes   int64   `json:"bytes_per_op"`
	Iters   int     `json:"iterations"`
	Speedup float64 `json:"speedup_vs_sorted,omitempty"`
}

// twoPointerReport is the full -twopointer output.
type twoPointerReport struct {
	Benchmark string           `json:"benchmark"`
	Seed      int64            `json:"seed"`
	Cells     []twoPointerCell `json:"cells"`
}

// twoPointerSizes are the published grid: the paper-scale n = 10,000
// row is the acceptance cell (≥1.5× over sorted at k = 50).
var twoPointerSizes = struct {
	ns []int
	ks []int
}{ns: []int{500, 2000, 10000}, ks: []int{50, 500}}

func measureTwoPointer(seed int64) (twoPointerReport, error) {
	rep := twoPointerReport{Benchmark: "TwoPointerVsSorted", Seed: seed}
	for _, n := range twoPointerSizes.ns {
		for _, k := range twoPointerSizes.ks {
			d := data.GeneratePaper(n, seed)
			g, err := bandwidth.DefaultGrid(d.X, k)
			if err != nil {
				return rep, err
			}
			var sortedNs int64
			for _, algo := range []struct {
				name string
				run  func(ctx context.Context, x, y []float64, g bandwidth.Grid, k kernel.Kind, st bandwidth.Stability) (bandwidth.Result, error)
			}{
				{"sorted", bandwidth.SortedGridSearchKernelStabilityContext},
				{"twopointer", bandwidth.TwoPointerGridSearchKernelStabilityContext},
			} {
				run := algo.run
				res := testing.Benchmark(func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := run(context.Background(), d.X, d.Y, g, kernel.Epanechnikov, bandwidth.Compensated); err != nil {
							b.Fatal(err)
						}
					}
				})
				cell := twoPointerCell{
					N: n, K: k, Algo: algo.name,
					NsPerOp: res.NsPerOp(),
					Allocs:  res.AllocsPerOp(),
					Bytes:   res.AllocedBytesPerOp(),
					Iters:   res.N,
				}
				switch algo.name {
				case "sorted":
					sortedNs = cell.NsPerOp
				case "twopointer":
					if cell.NsPerOp > 0 {
						cell.Speedup = float64(sortedNs) / float64(cell.NsPerOp)
					}
				}
				rep.Cells = append(rep.Cells, cell)
				fmt.Fprintf(os.Stderr, "bwbench: n=%d k=%d %-10s %12d ns/op %6d allocs/op\n",
					n, k, algo.name, cell.NsPerOp, cell.Allocs)
			}
		}
	}
	return rep, nil
}

// writeTwoPointer renders the report as indented JSON.
func writeTwoPointer(w io.Writer, rep twoPointerReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// runTwoPointer executes the -twopointer mode, writing JSON to stdout
// or to the -o path when given.
func runTwoPointer(seed int64, outPath string) error {
	rep, err := measureTwoPointer(seed)
	if err != nil {
		return err
	}
	if outPath == "" {
		return writeTwoPointer(os.Stdout, rep)
	}
	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	if err := writeTwoPointer(f, rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
