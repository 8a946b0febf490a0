package bandwidth

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/mathx"
	"repro/internal/sortx"
	"repro/internal/stats"
)

// twoPointerTol bounds the re-association noise between the two-pointer
// enumeration and the per-observation argsort: the prefix multisets are
// identical at every bandwidth boundary, so only the summation order of
// exact ties can differ.
const twoPointerTol = 1e-9

// tpTestSample builds a deterministic sample with duplicates, clusters
// and unsorted order — the shapes the global sort must normalise.
func tpTestSample(n int, seed int64) (x, y []float64) {
	rng := rand.New(rand.NewSource(seed))
	x = make([]float64, n)
	y = make([]float64, n)
	for i := range x {
		switch i % 5 {
		case 0:
			x[i] = float64(i%7) / 3 // heavy duplication
		case 1:
			x[i] = 10 + rng.Float64()*0.01 // tight cluster
		default:
			x[i] = rng.Float64() * 10
		}
		y[i] = math.Sin(3*x[i]) + 0.1*rng.NormFloat64()
	}
	rng.Shuffle(n, func(i, j int) {
		x[i], x[j] = x[j], x[i]
		y[i], y[j] = y[j], y[i]
	})
	return x, y
}

func TestTwoPointerMatchesSorted(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{2, 3, 17, 257} {
		x, y := tpTestSample(n, int64(n))
		g, err := DefaultGrid(x, 25)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []kernel.Kind{kernel.Epanechnikov, kernel.Uniform, kernel.Triangular} {
			for _, st := range []Stability{Compensated, Uncompensated} {
				want, err := SortedGridSearchKernelStabilityContext(ctx, x, y, g, k, st)
				if err != nil {
					t.Fatal(err)
				}
				got, err := TwoPointerGridSearchKernelStabilityContext(ctx, x, y, g, k, st)
				if err != nil {
					t.Fatal(err)
				}
				// The Triangular kernel runs the sorted search itself.
				if k == kernel.Triangular && !sameBits(got, want) {
					t.Errorf("n=%d %v/%v: twopointer differs bitwise from sorted", n, k, st)
				}
				if got.Index != want.Index {
					t.Errorf("n=%d %v/%v: twopointer index %d, sorted %d", n, k, st, got.Index, want.Index)
				}
				for j := range want.Scores {
					if mathx.RelDiff(got.Scores[j], want.Scores[j]) > twoPointerTol {
						t.Errorf("n=%d %v/%v: score %d diverges: %g vs %g",
							n, k, st, j, got.Scores[j], want.Scores[j])
					}
				}
			}
		}
	}
}

// sameBits reports whether two results agree bit for bit: arg-min,
// CV and every score.
func sameBits(a, b Result) bool {
	if a.Index != b.Index || math.Float64bits(a.CV) != math.Float64bits(b.CV) || len(a.Scores) != len(b.Scores) {
		return false
	}
	for j := range a.Scores {
		if math.Float64bits(a.Scores[j]) != math.Float64bits(b.Scores[j]) {
			return false
		}
	}
	return true
}

// sequentialTwoPointer is the reference the split engine is held to:
// TwoPointerGridSearchInto scores the whole grid on the calling
// goroutine. The scores are copied out of the workspace.
func sequentialTwoPointer(t *testing.T, x, y []float64, g Grid, k kernel.Kind, st Stability) Result {
	t.Helper()
	ws := AcquireWorkspace(len(x), g.Len())
	defer ws.Release()
	r, err := TwoPointerGridSearchInto(context.Background(), x, y, g, k, st, ws)
	if err != nil {
		t.Fatal(err)
	}
	r.Scores = append([]float64(nil), r.Scores...)
	return r
}

// splitWorkerCaps are the worker caps the split engine is checked at:
// the GOMAXPROCS default, no helpers, and caps below, at and above the
// grid sizes below.
var splitWorkerCaps = []int{0, 1, 2, 3, 64}

// checkSplitMatchesSequential asserts that the split engine scores
// every candidate bit for bit as the sequential search does, for both
// window kernels, both summation modes and every worker cap.
func checkSplitMatchesSequential(t *testing.T, x, y []float64, g Grid) {
	t.Helper()
	ctx := context.Background()
	for _, k := range []kernel.Kind{kernel.Epanechnikov, kernel.Uniform} {
		for _, st := range []Stability{Compensated, Uncompensated} {
			want := sequentialTwoPointer(t, x, y, g, k, st)
			for _, workers := range splitWorkerCaps {
				got, err := TwoPointerGridSearchParallelStabilityContext(ctx, x, y, g, k, workers, st)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(got, want) {
					t.Errorf("n=%d k=%d %v/%v workers=%d: (index=%d cv=%v), sequential (index=%d cv=%v) — not bit-identical",
						len(x), g.Len(), k, st, workers, got.Index, got.CV, want.Index, want.CV)
				}
			}
		}
	}
}

// TestTwoPointerParallelMatchesSequential pins the candidate split:
// whichever goroutine claims a candidate scores it exactly as the
// sequential search does, so the results are bit-identical.
func TestTwoPointerParallelMatchesSequential(t *testing.T) {
	x, y := tpTestSample(311, 7)
	for _, size := range []int{1, 2, 7, 40} {
		g, err := DefaultGrid(x, size)
		if err != nil {
			t.Fatal(err)
		}
		checkSplitMatchesSequential(t, x, y, g)
	}
}

// TestParallelFewerObservationsThanWorkers pins the worker clamps: with
// n < workers both parallel families must still agree with their
// sequential search — sorted-parallel (observation shards, clamped to n)
// within twoPointerTol, the two-pointer split (candidate claims, clamped
// to k) bit for bit.
func TestParallelFewerObservationsThanWorkers(t *testing.T) {
	x := []float64{0.9, 0.1, 0.5}
	y := []float64{1, 2, 0}
	g, err := NewGrid(0.2, 1.2, 6)
	if err != nil {
		t.Fatal(err)
	}
	want, err := SortedGridSearchKernelStabilityContext(context.Background(), x, y, g, kernel.Epanechnikov, Compensated)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SortedGridSearchParallelStabilityContext(context.Background(), x, y, g, 8, Compensated)
	if err != nil {
		t.Fatalf("sorted-parallel with workers > n: %v", err)
	}
	if got.Index != want.Index || mathx.RelDiff(got.CV, want.CV) > twoPointerTol {
		t.Errorf("sorted-parallel: (index=%d cv=%g), sequential (index=%d cv=%g)",
			got.Index, got.CV, want.Index, want.CV)
	}
	for _, size := range []int{1, 2, 7, 40} {
		g, err := NewGrid(0.2, 1.2, size)
		if err != nil {
			t.Fatal(err)
		}
		checkSplitMatchesSequential(t, x, y, g)
	}
}

// tripCtx is a context that reports cancellation from its trip-th Err
// call on: a deterministic "cancelled mid-grid" for the split engine,
// whose goroutines poll Err before every claimed candidate.
type tripCtx struct {
	context.Context
	calls atomic.Int64
	trip  int64
}

func (c *tripCtx) Err() error {
	if c.calls.Add(1) >= c.trip {
		return context.Canceled
	}
	return nil
}

// TestTwoPointerSplitCancellation cancels the split engine mid-grid: it
// must return ctx.Err() and a zero Result, leave no helper goroutine
// behind, and give back every workspace it acquired.
func TestTwoPointerSplitCancellation(t *testing.T) {
	x, y := tpTestSample(600, 21)
	g, err := DefaultGrid(x, 40)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	h0, m0 := PoolStats()
	r0 := PoolReleases()
	for _, k := range []kernel.Kind{kernel.Epanechnikov, kernel.Uniform} {
		for _, workers := range splitWorkerCaps {
			// The first poll precedes the sort; the trip lands a few
			// candidates into the grid.
			ctx := &tripCtx{Context: context.Background(), trip: 6}
			got, err := TwoPointerGridSearchParallelStabilityContext(ctx, x, y, g, k, workers, Compensated)
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%v workers=%d: err = %v, want context.Canceled", k, workers, err)
			}
			if !reflect.DeepEqual(got, Result{}) {
				t.Errorf("%v workers=%d: cancelled search returned %+v, want a zero Result", k, workers, got)
			}
		}
	}
	// A helper that has called wg.Done may not have exited yet.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after the cancelled searches, %d before", n, base)
	}
	h1, m1 := PoolStats()
	if acq, rel := (h1-h0)+(m1-m0), PoolReleases()-r0; acq != rel {
		t.Errorf("cancelled searches acquired %d workspaces and released %d", acq, rel)
	}
}

// TestWindowSubGridBitIdentical pins the per-candidate independence the
// coordinator's grid sharding relies on: for random contiguous splits
// of a grid, the window sweep's scores on each sub-grid equal, bit for
// bit, the same slice of the full-grid scores.
func TestWindowSubGridBitIdentical(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	x, y := tpTestSample(401, 9)
	g, err := DefaultGrid(x, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []kernel.Kind{kernel.Epanechnikov, kernel.Uniform} {
		for _, st := range []Stability{Compensated, Uncompensated} {
			full, err := TwoPointerGridSearchKernelStabilityContext(ctx, x, y, g, k, st)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 8; trial++ {
				// Cut points 0 = c_0 < c_1 < … < c_m = k.
				cuts := []int{0}
				for c := 1 + rng.Intn(9); c < g.Len(); c += 1 + rng.Intn(17) {
					cuts = append(cuts, c)
				}
				cuts = append(cuts, g.Len())
				for s := 1; s < len(cuts); s++ {
					lo, hi := cuts[s-1], cuts[s]
					sub, err := TwoPointerGridSearchKernelStabilityContext(ctx, x, y, Grid{H: g.H[lo:hi]}, k, st)
					if err != nil {
						t.Fatal(err)
					}
					for j, v := range sub.Scores {
						if math.Float64bits(v) != math.Float64bits(full.Scores[lo+j]) {
							t.Fatalf("%v/%v sub-grid [%d,%d): score %d is %v, full grid %v",
								k, st, lo, hi, lo+j, v, full.Scores[lo+j])
						}
					}
				}
			}
		}
	}
}

// windowAccuracyCase is one shape on which an expansion of the window
// moments about a fixed origin would cancel.
type windowAccuracyCase struct {
	name string
	x, y []float64
	g    Grid
}

func windowAccuracyCases(t *testing.T, n int, seed int64) []windowAccuracyCase {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	uniform := func(off float64) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = off + rng.Float64()
		}
		return x
	}
	grid := func(x []float64, k int) Grid {
		g, err := DefaultGrid(x, k)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	var cases []windowAccuracyCase

	// Offset X: every x near 10⁶, so x² carries twelve digits the
	// bandwidth-scale distances do not.
	x := uniform(1e6)
	y := make([]float64, n)
	for i := range y {
		y[i] = math.Sin(4*(x[i]-1e6)) + 0.1*rng.NormFloat64()
	}
	cases = append(cases, windowAccuracyCase{"offset-x", x, y, grid(x, 24)})

	// Tiny h: windows of zero to a few neighbours, near-boundary
	// denominators, and a flip on almost every observation.
	x = uniform(0)
	y = make([]float64, n)
	for i := range y {
		y[i] = math.Sin(4*x[i]) + 0.1*rng.NormFloat64()
	}
	r := stats.Range(x)
	g, err := NewGrid(r/2400, r/10, 24)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, windowAccuracyCase{"tiny-h", x, y, g})

	// Offset Y and cancelling Y: the stability battery's shapes.
	x = uniform(0)
	y = make([]float64, n)
	for i := range y {
		y[i] = 100 + math.Sin(4*x[i]) + 0.1*rng.NormFloat64()
	}
	cases = append(cases, windowAccuracyCase{"offset-y", x, y, grid(x, 24)})
	x = uniform(0)
	y = make([]float64, n)
	for i := range y {
		y[i] = 100 * (1 + 0.01*rng.NormFloat64())
		if i%2 == 1 {
			y[i] = -y[i]
		}
	}
	cases = append(cases, windowAccuracyCase{"cancelling-y", x, y, grid(x, 24)})
	return cases
}

// TestWindowSweepAccuracy holds the window sweep to the conformance
// Exact class (same arg-min, relative score difference ≤ 1e-9) against
// the naive O(k·n²) oracle on the shapes where an un-anchored moment
// expansion cancels. To bound the oracle's cost, Uniform runs on every
// third candidate, and n = 10,000 runs only without -short, on two
// candidates with the Epanechnikov kernel.
func TestWindowSweepAccuracy(t *testing.T) {
	const exactTol = 1e-9
	sizes := []int{2000}
	if !testing.Short() {
		sizes = append(sizes, 10000)
	}
	for _, n := range sizes {
		for _, c := range windowAccuracyCases(t, n, int64(n)) {
			c, n := c, n
			t.Run(fmt.Sprintf("%s/n=%d", c.name, n), func(t *testing.T) {
				t.Parallel()
				ctx := context.Background()
				runs := []struct {
					k kernel.Kind
					g Grid
				}{{kernel.Epanechnikov, c.g}, {kernel.Uniform, Grid{H: []float64{c.g.H[0], c.g.H[3], c.g.H[6], c.g.H[9], c.g.H[12], c.g.H[15], c.g.H[18], c.g.H[21]}}}}
				if n > 2000 {
					runs = runs[:1]
					runs[0].g = Grid{H: []float64{c.g.H[0], c.g.H[11]}}
				}
				for _, r := range runs {
					want, err := NaiveGridSearchContext(ctx, c.x, c.y, r.g, r.k)
					if err != nil {
						t.Fatal(err)
					}
					got, err := TwoPointerGridSearchKernelStabilityContext(ctx, c.x, c.y, r.g, r.k, Compensated)
					if err != nil {
						t.Fatal(err)
					}
					if got.Index != want.Index {
						t.Errorf("%v: arg-min %d, naive %d", r.k, got.Index, want.Index)
					}
					var worst float64
					for j := range want.Scores {
						worst = math.Max(worst, mathx.RelDiff(got.Scores[j], want.Scores[j]))
					}
					if worst > exactTol {
						t.Errorf("%v: worst relative score difference %.3g > %g", r.k, worst, exactTol)
					}
				}
			})
		}
	}
}

// TestTwoPointerIntoZeroAlloc pins the workspace contract: with a
// caller-held workspace the search itself must not touch the heap.
func TestTwoPointerIntoZeroAlloc(t *testing.T) {
	x, y := tpTestSample(256, 3)
	g, err := DefaultGrid(x, 32)
	if err != nil {
		t.Fatal(err)
	}
	ws := AcquireWorkspace(len(x), g.Len())
	defer ws.Release()
	ctx := context.Background()
	// Triangular runs the sorted search, whose position and kernel-sum
	// buffers the first call allocates in ws.
	for _, k := range []kernel.Kind{kernel.Epanechnikov, kernel.Triangular} {
		if _, err := TwoPointerGridSearchInto(ctx, x, y, g, k, Compensated, ws); err != nil {
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(50, func() {
			if _, err := TwoPointerGridSearchInto(ctx, x, y, g, k, Compensated, ws); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Errorf("%v: TwoPointerGridSearchInto allocates %.2f objects/op with a warm workspace, want 0", k, avg)
		}
	}
}

func TestWorkspacePoolStats(t *testing.T) {
	h0, m0 := PoolStats()
	ws := AcquireWorkspace(1024, 16)
	ws.Release()
	ws = AcquireWorkspace(1000, 16) // same capacity class: must hit
	ws.Release()
	h1, m1 := PoolStats()
	if m1 <= m0 && h1 <= h0 {
		t.Errorf("pool counters did not move: hits %d→%d misses %d→%d", h0, h1, m0, m1)
	}
	// The race detector makes sync.Pool drop Puts at random, so only a
	// build without it can require the hit.
	if !raceEnabled && h1 == h0 {
		t.Errorf("second acquire in the same class missed the pool (hits %d→%d)", h0, h1)
	}
}

// quickSortNeighbours is the per-observation enumeration of the paper's
// Program 3, kept as the reference for the merge: the distances
// |X_i − X_l|, l ≠ i, QuickSorted with the Y payloads.
func quickSortNeighbours(x, y []float64, i int) (absd, yv []float64) {
	for l := range x {
		if l != i {
			absd = append(absd, math.Abs(x[i]-x[l]))
			yv = append(yv, y[l])
		}
	}
	sortx.QuickSort64(absd, yv)
	return absd, yv
}

// FuzzTwoPointerOrder pins the enumeration equivalence the whole family
// rests on: for any sample — duplicated, tied, unsorted — the
// two-pointer merge and the per-observation QuickSort emit the same
// distance array bitwise, and within every run of equal distances the
// same multiset of Y payloads. That is exactly the "same multiset at
// every prefix boundary" property the sweeps require.
func FuzzTwoPointerOrder(f *testing.F) {
	var sx, sy, dx, dy []float64
	for i := 0; i < 32; i++ {
		sx = append(sx, float64(i)/8)
		sy = append(sy, math.Cos(float64(i)))
		dx = append(dx, float64(i%4)) // massive duplication
		dy = append(dy, float64(i))
	}
	f.Add(fuzzLatticeSeed(sx, sy), uint8(0))
	f.Add(fuzzLatticeSeed(dx, dy), uint8(1))

	f.Fuzz(func(t *testing.T, data []byte, offByte uint8) {
		x, y := fuzzLatticeDecode(data, 96, offByte)
		if len(x) < 2 {
			t.Skip("need two observations")
		}
		n := len(x)
		ws := AcquireWorkspace(n, 0)
		defer ws.Release()
		nb := ws.neighbours(x, y)

		delta := make([]float64, n-1)
		yv := make([]float64, n-1)
		for i := 0; i < n; i++ {
			p := nb.pos[i]
			if nb.xs[p] != x[i] || nb.ys[p] != y[i] {
				t.Fatalf("obs %d: sorted position %d holds (%v, %v), want (%v, %v)", i, p, nb.xs[p], nb.ys[p], x[i], y[i])
			}
			twoPointerFill(nb.xs, nb.ys, p, delta, yv)
			refD, refY := quickSortNeighbours(x, y, i)
			for w := 0; w < n-1; w++ {
				if math.Abs(delta[w]) != refD[w] {
					t.Fatalf("obs %d: distance %d differs bitwise: twopointer %v, quicksort %v",
						i, w, math.Abs(delta[w]), refD[w])
				}
			}
			// Within each run of equal distances the Y payloads must form
			// the same multiset (order within a run is unspecified — both
			// enumerations break ties arbitrarily).
			for lo := 0; lo < n-1; {
				hi := lo + 1
				for hi < n-1 && refD[hi] == refD[lo] {
					hi++
				}
				a := append([]float64(nil), yv[lo:hi]...)
				b := append([]float64(nil), refY[lo:hi]...)
				sort.Float64s(a)
				sort.Float64s(b)
				for j := range a {
					if a[j] != b[j] {
						t.Fatalf("obs %d: tie run [%d,%d) has different Y multisets: %v vs %v",
							i, lo, hi, a, b)
					}
				}
				lo = hi
			}
		}
	})
}

// TestWindowSweepNonFiniteX pins the index bounds of the window sweep
// and of the neighbour merge that feeds every prefix sweep: a NaN or
// ±Inf in X (which the public entry points reject before this layer)
// must give a result, never an index-out-of-range panic.
func TestWindowSweepNonFiniteX(t *testing.T) {
	g, err := NewGrid(0.1, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	searches := map[string]func(x, y []float64) (Result, error){
		"parallel": func(x, y []float64) (Result, error) {
			return TwoPointerGridSearchParallelStabilityContext(ctx, x, y, g, kernel.Epanechnikov, 3, Compensated)
		},
		"sorted-parallel": func(x, y []float64) (Result, error) {
			return SortedGridSearchParallelStabilityContext(ctx, x, y, g, 3, Compensated)
		},
		"ll-sorted": func(x, y []float64) (Result, error) {
			return SortedGridSearchLocalLinearStabilityContext(ctx, x, y, g, Compensated)
		},
		"aicc": func(x, y []float64) (Result, error) {
			return SortedGridSearchAICcContext(ctx, x, y, g)
		},
	}
	for _, k := range []kernel.Kind{kernel.Epanechnikov, kernel.Uniform, kernel.Triangular} {
		searches["twopointer/"+k.String()] = func(x, y []float64) (Result, error) {
			return TwoPointerGridSearchKernelStabilityContext(ctx, x, y, g, k, Compensated)
		}
		searches["sorted/"+k.String()] = func(x, y []float64) (Result, error) {
			return SortedGridSearchKernelStabilityContext(ctx, x, y, g, k, Compensated)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, pos := range []int{0, 3, 7} {
			for name, search := range searches {
				x := []float64{0.1, 0.4, 0.5, 0.9, 1.3, 1.4, 2.2, 2.5}
				y := []float64{1, 0, 2, 1, 3, 2, 0, 1}
				x[pos] = bad
				if _, err := search(x, y); err != nil {
					t.Errorf("x[%d]=%v %s: %v", pos, bad, name, err)
				}
			}
		}
	}
}

// TestWindowSweepExtremeBandwidths pins the power-of-two scaling of the
// window moments: at h = 1e±200, h² overflows or underflows, yet the
// sweep must still agree with the naive oracle — the leave-one-out mean
// of all neighbours at the huge bandwidth, of the duplicates at the tiny
// one.
func TestWindowSweepExtremeBandwidths(t *testing.T) {
	x, y := tpTestSample(97, 13)
	g := Grid{H: []float64{1e-200, 1e-10, 0.5, 1e200}}
	ctx := context.Background()
	for _, k := range []kernel.Kind{kernel.Epanechnikov, kernel.Uniform} {
		want, err := NaiveGridSearchContext(ctx, x, y, g, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := TwoPointerGridSearchKernelStabilityContext(ctx, x, y, g, k, Compensated)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want.Scores {
			a, b := want.Scores[j], got.Scores[j]
			if !mathx.IsFinite(b) || mathx.RelDiff(a, b) > 1e-9 {
				t.Errorf("%v h=%g: naive %v, window %v", k, g.H[j], a, b)
			}
		}
	}
}
