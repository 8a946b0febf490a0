package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/data"
)

// TestTwoPointerSequentialMatchesSorted pins the f32 two-pointer program
// to the f32 per-row-sort program bit-for-bit where the enumeration is
// tie-free, and to the same selected index everywhere: both feed the
// identical accumulateRow arithmetic, only the neighbour enumeration
// differs.
func TestTwoPointerSequentialMatchesSorted(t *testing.T) {
	for _, c := range []struct {
		n, k int
		seed int64
	}{{64, 16, 1}, {200, 32, 5}, {777, 64, 123}} {
		d := data.GeneratePaper(c.n, c.seed)
		g, err := bandwidth.DefaultGrid(d.X, c.k)
		if err != nil {
			t.Fatal(err)
		}
		want, err := SortedSequential(d.X, d.Y, g)
		if err != nil {
			t.Fatal(err)
		}
		got, err := TwoPointerSequentialContext(context.Background(), d.X, d.Y, g)
		if err != nil {
			t.Fatal(err)
		}
		if got.Index != want.Index {
			t.Errorf("n=%d seed=%d: twopointer index %d, sorted %d", c.n, c.seed, got.Index, want.Index)
		}
		for j := range want.Scores {
			// The continuous DGP has no exact distance ties, so the merge
			// order equals the sort order and the float32 sums are
			// bit-identical.
			if got.Scores[j] != want.Scores[j] {
				t.Errorf("n=%d seed=%d: score %d differs: %v vs %v",
					c.n, c.seed, j, got.Scores[j], want.Scores[j])
			}
		}
		// And the uncompensated twin against its own counterpart.
		wantU, err := SortedSequentialUncompensatedContext(context.Background(), d.X, d.Y, g)
		if err != nil {
			t.Fatal(err)
		}
		gotU, err := TwoPointerSequentialUncompensatedContext(context.Background(), d.X, d.Y, g)
		if err != nil {
			t.Fatal(err)
		}
		if gotU.Index != wantU.Index {
			t.Errorf("n=%d seed=%d: uncompensated twopointer index %d, sorted %d",
				c.n, c.seed, gotU.Index, wantU.Index)
		}
	}
}

// TestTwoPointerSequentialDuplicates exercises heavy distance ties: the
// merge's tie order differs from the device sort's, so scores agree only
// to float32 re-association noise, but the selected index must match.
func TestTwoPointerSequentialDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 160
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(i % 10)
		y[i] = math.Sin(x[i]) + 0.05*rng.NormFloat64()
	}
	g, err := bandwidth.DefaultGrid(x, 20)
	if err != nil {
		t.Fatal(err)
	}
	want, err := SortedSequential(x, y, g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := TwoPointerSequentialContext(context.Background(), x, y, g)
	if err != nil {
		t.Fatal(err)
	}
	if got.Index != want.Index {
		t.Fatalf("duplicates: twopointer index %d, sorted %d", got.Index, want.Index)
	}
	for j := range want.Scores {
		a, b := want.Scores[j], got.Scores[j]
		if diff := math.Abs(a - b); diff > 1e-5*math.Max(1, math.Abs(a)) {
			t.Errorf("duplicates: score %d diverges beyond f32 tie noise: %v vs %v", j, a, b)
		}
	}
}

func TestTwoPointerSequentialCancellation(t *testing.T) {
	d := data.GeneratePaper(128, 8)
	g, err := bandwidth.DefaultGrid(d.X, 16)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := TwoPointerSequentialContext(ctx, d.X, d.Y, g)
	if err != context.Canceled {
		t.Fatalf("cancelled run returned %v", err)
	}
	if r.H != 0 || r.Scores != nil {
		t.Fatalf("cancelled run leaked a partial result: %+v", r)
	}
}
