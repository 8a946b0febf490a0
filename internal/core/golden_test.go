package core

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/data"
	"repro/internal/kernel"
)

// Golden regression tests: with fixed seeds the selected grid index is a
// deterministic function of the algorithm. Any change to the DGP, the
// sort, the sweep arithmetic, or the reductions that alters a selection
// shows up here immediately. The expected values were produced by this
// implementation and cross-validated by the naive reference selector
// (TestGoldenMatchesNaive below re-derives them on every run).

var goldenCases = []struct {
	n, k int
	seed int64
}{
	{100, 10, 1},
	{100, 10, 2},
	{300, 50, 42},
	{500, 25, 7},
	{777, 64, 123},
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json with the current selections")

// goldenEntry is one stored selection on the seeded paper DGP, recorded
// bit-exactly. Selector names which backend produced it: the float64
// sorted grid search, its two-pointer replacement, and the float32
// two-pointer sequential program.
type goldenEntry struct {
	Selector string  `json:"selector"`
	N        int     `json:"n"`
	K        int     `json:"k"`
	Seed     int64   `json:"seed"`
	Index    int     `json:"index"`
	H        float64 `json:"h"`
	CV       float64 `json:"cv"`
}

// goldenSelectors are the backends pinned in testdata/golden.json. The
// "sorted" entries predate the two-pointer family and must never drift
// when new selectors are added.
var goldenSelectors = []struct {
	name string
	run  func(x, y []float64, g bandwidth.Grid) (bandwidth.Result, error)
}{
	{"sorted", func(x, y []float64, g bandwidth.Grid) (bandwidth.Result, error) {
		return bandwidth.SortedGridSearchKernelStabilityContext(context.Background(), x, y, g, kernel.Epanechnikov, bandwidth.Compensated)
	}},
	{"twopointer", func(x, y []float64, g bandwidth.Grid) (bandwidth.Result, error) {
		return bandwidth.TwoPointerGridSearchKernelStabilityContext(context.Background(), x, y, g, kernel.Epanechnikov, bandwidth.Compensated)
	}},
	{"twopointer-f32", func(x, y []float64, g bandwidth.Grid) (bandwidth.Result, error) {
		return TwoPointerSequentialContext(context.Background(), x, y, g)
	}},
}

func currentGolden(t *testing.T) []goldenEntry {
	t.Helper()
	out := make([]goldenEntry, 0, len(goldenCases)*len(goldenSelectors))
	for _, c := range goldenCases {
		d := data.GeneratePaper(c.n, c.seed)
		g, err := bandwidth.DefaultGrid(d.X, c.k)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range goldenSelectors {
			r, err := s.run(d.X, d.Y, g)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, goldenEntry{Selector: s.name, N: c.n, K: c.k, Seed: c.seed, Index: r.Index, H: r.H, CV: r.CV})
		}
	}
	return out
}

// TestGoldenSelections pins the selections to a checked-in baseline so
// drift is visible in review, not just at run time. The refresh path is
// deliberately two-step: conformance first, then -update.
func TestGoldenSelections(t *testing.T) {
	path := filepath.Join("testdata", "golden.json")
	got := currentGolden(t)
	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d selections", path, len(got))
		return
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden baseline %s: %v\nseed it with: go test ./internal/core -run TestGoldenSelections -update", path, err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("corrupt golden baseline %s: %v", path, err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden baseline has %d entries, test computes %d: baseline is stale, refresh with -update after `go run ./cmd/conform` passes", len(want), len(got))
	}
	for i, w := range got {
		if w != want[i] {
			t.Errorf("golden drift for %s at n=%d k=%d seed=%d:\n  stored:  index=%d h=%v cv=%v\n  current: index=%d h=%v cv=%v\n"+
				"A selection changed. Before refreshing, run `go run ./cmd/conform` to confirm every backend still agrees with the float64 oracle under the tolerance policy; "+
				"if the drift is intended, refresh with `go test ./internal/core -run TestGoldenSelections -update`.",
				w.Selector, w.N, w.K, w.Seed, want[i].Index, want[i].H, want[i].CV, w.Index, w.H, w.CV)
		}
	}
}

// TestGoldenBaggedDegenerate guards the bagged selector's r=1, m=n
// degenerate path against the stored baseline: it must reproduce the
// "twopointer" entries of golden.json bit-exactly, because a degenerate
// bagged run is one exact two-pointer sweep by construction. No new
// golden entries are needed — the guard rides on the existing ones, so
// the baseline never has to be regenerated for the bagged selector.
func TestGoldenBaggedDegenerate(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("testdata", "golden.json"))
	if err != nil {
		t.Fatalf("missing golden baseline: %v", err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("corrupt golden baseline: %v", err)
	}
	checked := 0
	for _, w := range want {
		if w.Selector != "twopointer" {
			continue
		}
		d := data.GeneratePaper(w.N, w.Seed)
		g, err := bandwidth.DefaultGrid(d.X, w.K)
		if err != nil {
			t.Fatal(err)
		}
		// The seed must be irrelevant on the degenerate path: every bag is
		// the full sample.
		for _, seed := range []uint64{0, 7} {
			r, err := bandwidth.BaggedGridSearchContext(context.Background(), d.X, d.Y, g, kernel.Epanechnikov, bandwidth.BaggedOptions{Bags: 1, BagSize: w.N, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if r.Index != w.Index || r.H != w.H || r.CV != w.CV {
				t.Errorf("n=%d k=%d seed=%d bagSeed=%d: degenerate bagged (index=%d h=%v cv=%v) differs from stored twopointer (index=%d h=%v cv=%v)",
					w.N, w.K, w.Seed, seed, r.Index, r.H, r.CV, w.Index, w.H, w.CV)
			}
			if r.Factor != 1 {
				t.Errorf("n=%d: degenerate rescale factor %v, want exactly 1", w.N, r.Factor)
			}
		}
		checked++
	}
	if checked != len(goldenCases) {
		t.Fatalf("checked %d twopointer baseline entries, want %d — baseline layout changed", checked, len(goldenCases))
	}
}

func TestGoldenAllSelectorsAgree(t *testing.T) {
	for _, c := range goldenCases {
		d := data.GeneratePaper(c.n, c.seed)
		g, err := bandwidth.DefaultGrid(d.X, c.k)
		if err != nil {
			t.Fatal(err)
		}
		sorted, err := bandwidth.SortedGridSearchKernelStabilityContext(context.Background(), d.X, d.Y, g, kernel.Epanechnikov, bandwidth.Compensated)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := SortedSequential(d.X, d.Y, g)
		if err != nil {
			t.Fatal(err)
		}
		gpuRes, _, err := SelectGPU(d.X, d.Y, g, GPUOptions{})
		if err != nil {
			t.Fatal(err)
		}
		tiledRes, _, _, err := SelectGPUTiled(d.X, d.Y, g, TiledOptions{ChunkSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		multi, err := SelectGPUMulti(d.X, d.Y, g, 3, GPUOptions{})
		if err != nil {
			t.Fatal(err)
		}
		par, err := bandwidth.SortedGridSearchParallelStabilityContext(context.Background(), d.X, d.Y, g, 4, bandwidth.Compensated)
		if err != nil {
			t.Fatal(err)
		}
		tp, err := bandwidth.TwoPointerGridSearchKernelStabilityContext(context.Background(), d.X, d.Y, g, kernel.Epanechnikov, bandwidth.Compensated)
		if err != nil {
			t.Fatal(err)
		}
		tpPar, err := bandwidth.TwoPointerGridSearchParallelStabilityContext(context.Background(), d.X, d.Y, g, kernel.Epanechnikov, 4, bandwidth.Compensated)
		if err != nil {
			t.Fatal(err)
		}
		tpF32, err := TwoPointerSequentialContext(context.Background(), d.X, d.Y, g)
		if err != nil {
			t.Fatal(err)
		}
		idx := sorted.Index
		for name, got := range map[string]int{
			"seqC": seq.Index, "gpu": gpuRes.Index, "tiled": tiledRes.Index,
			"multi": multi.Index, "parallel": par.Index,
			"twopointer": tp.Index, "twopointer-parallel": tpPar.Index,
			"twopointer-f32": tpF32.Index,
		} {
			if got != idx {
				t.Errorf("n=%d k=%d seed=%d: %s selected %d, sorted selected %d",
					c.n, c.k, c.seed, name, got, idx)
			}
		}
	}
}

func TestGoldenDeterministicAcrossRuns(t *testing.T) {
	// The same inputs must give the same selection twice (no map-order
	// or goroutine-schedule dependence anywhere in the pipelines).
	d := data.GeneratePaper(400, 99)
	g, err := bandwidth.DefaultGrid(d.X, 40)
	if err != nil {
		t.Fatal(err)
	}
	first, _, err := SelectGPU(d.X, d.Y, g, GPUOptions{KeepScores: true})
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		again, _, err := SelectGPU(d.X, d.Y, g, GPUOptions{KeepScores: true})
		if err != nil {
			t.Fatal(err)
		}
		if again.Index != first.Index || again.CV != first.CV {
			t.Fatalf("run %d: nondeterministic selection", run)
		}
		for j := range first.Scores {
			if again.Scores[j] != first.Scores[j] {
				t.Fatalf("run %d: score %d differs", run, j)
			}
		}
	}
	// The concurrent engines too (barrier path): reductions must be
	// deterministic because the tree order is fixed by thread id.
	firstPar, err := bandwidth.SortedGridSearchParallelStabilityContext(context.Background(), d.X, d.Y, g, 8, bandwidth.Compensated)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		again, err := bandwidth.SortedGridSearchParallelStabilityContext(context.Background(), d.X, d.Y, g, 8, bandwidth.Compensated)
		if err != nil {
			t.Fatal(err)
		}
		if again.Index != firstPar.Index || again.CV != firstPar.CV {
			t.Fatalf("parallel run %d: nondeterministic", run)
		}
	}
}
