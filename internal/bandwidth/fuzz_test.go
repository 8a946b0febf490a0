package bandwidth

import (
	"context"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/kernel"
	"repro/internal/mathx"
)

// FuzzCompensatedSweep differentially fuzzes the two summation modes of
// the sorted float64 grid search against each other and against the
// naive per-bandwidth objective. Compensated (Neumaier) and plain
// accumulation evaluate the identical objective and may differ only by
// float64 re-association noise; the naive search is the definitional
// oracle with no incremental shortcut to get wrong.
//
// Raw float64 inputs would make a fixed tolerance meaningless: when
// every in-range neighbour sits within δ of the |d| = h boundary, the
// denominator (cnt−1) − Σd²/h² is an ill-conditioned cancellation and
// the naive and prefix-sum formulations may legitimately diverge by
// ~ε·h/δ, which is unbounded as δ → 0. The decoder therefore puts X on
// a 1/1024 lattice (distances are exact binary fractions, so δ ≥ 1/1024
// and the amplification is capped at ~4096·ε per term) and bounds Y,
// optionally shifting it by a large offset — the regime compensation
// exists for. Within that domain any reldiff beyond 1e-6 is a genuine
// sweep bug, not conditioning.

// fuzzLatticeDecode maps 4 raw bytes per observation onto the bounded
// lattice domain: x ∈ {0, 1/1024, …, 4095/1024}, y ∈ [−128, 128).
func fuzzLatticeDecode(data []byte, max int, offByte uint8) (x, y []float64) {
	n := len(data) / 4
	if n > max {
		n = max
	}
	offset := []float64{0, 100, 1e4, -1e4}[int(offByte)%4]
	for i := 0; i < n; i++ {
		xb := binary.LittleEndian.Uint16(data[4*i:])
		yb := int16(binary.LittleEndian.Uint16(data[4*i+2:]))
		x = append(x, float64(xb%4096)/1024)
		y = append(y, offset+float64(yb)/256)
	}
	return x, y
}

// fuzzLatticeSeed inverts fuzzLatticeDecode for corpus seeding: values
// are clamped onto the lattice, so seeds are approximations.
func fuzzLatticeSeed(x, y []float64) []byte {
	out := make([]byte, 0, 4*len(x))
	var b [2]byte
	for i := range x {
		binary.LittleEndian.PutUint16(b[:], uint16(math.Abs(x[i])*1024)%4096)
		out = append(out, b[:]...)
		binary.LittleEndian.PutUint16(b[:], uint16(int16(y[i]*256)))
		out = append(out, b[:]...)
	}
	return out
}

func FuzzCompensatedSweep(f *testing.F) {
	// Seeds: a smooth sine sample, duplicate x positions (sort ties), and
	// an alternating-sign sample; the offset byte covers the large-offset
	// regime on every one of them as the fuzzer mutates it.
	var sx, sy, dx, dy, ax, ay []float64
	for i := 0; i < 48; i++ {
		v := float64(i) / 16
		sx = append(sx, v)
		sy = append(sy, math.Sin(3*v))
		dx = append(dx, float64(i%8)/4)
		dy = append(dy, float64(i)/48)
		ax = append(ax, v)
		ay = append(ay, 100-200*float64(i%2))
	}
	f.Add(fuzzLatticeSeed(sx, sy), uint8(12), uint8(0))
	f.Add(fuzzLatticeSeed(dx, dy), uint8(16), uint8(1))
	f.Add(fuzzLatticeSeed(ax, ay), uint8(8), uint8(2))

	f.Fuzz(func(t *testing.T, data []byte, kByte, offByte uint8) {
		x, y := fuzzLatticeDecode(data, 96, offByte)
		if len(x) < 2 {
			t.Skip("need two observations")
		}
		k := 2 + int(kByte)%24
		g, err := DefaultGrid(x, k)
		if err != nil {
			t.Skip("degenerate domain")
		}
		ctx := context.Background()

		comp, err := SortedGridSearchKernelStabilityContext(ctx, x, y, g, kernel.Epanechnikov, Compensated)
		if err != nil {
			t.Fatalf("compensated sweep: %v", err)
		}
		plain, err := SortedGridSearchKernelStabilityContext(ctx, x, y, g, kernel.Epanechnikov, Uncompensated)
		if err != nil {
			t.Fatalf("uncompensated sweep: %v", err)
		}
		oracle, err := NaiveGridSearchContext(ctx, x, y, g, kernel.Epanechnikov)
		if err != nil {
			t.Fatalf("naive oracle: %v", err)
		}

		const tol = 1e-6
		check := func(name string, got Result) {
			t.Helper()
			for j := range oracle.Scores {
				a, b := oracle.Scores[j], got.Scores[j]
				if mathx.IsFinite(a) != mathx.IsFinite(b) {
					t.Fatalf("%s score %d finiteness differs: naive %g vs %g", name, j, a, b)
				}
				if mathx.IsFinite(a) && mathx.RelDiff(a, b) > tol {
					t.Fatalf("%s score %d: naive %g vs %g, reldiff %g > %g (n=%d k=%d)",
						name, j, a, b, mathx.RelDiff(a, b), tol, len(x), k)
				}
			}
			if got.Index != oracle.Index {
				// Acceptable only when the naive objective itself cannot
				// separate the two grid points (exact or near tie).
				a, b := oracle.Scores[oracle.Index], oracle.Scores[got.Index]
				if mathx.IsFinite(a) && mathx.IsFinite(b) && mathx.RelDiff(a, b) > tol {
					t.Fatalf("%s arg-min %d differs from naive %d and is no near-tie (%g vs %g)",
						name, got.Index, oracle.Index, b, a)
				}
			}
		}
		check("compensated", comp)
		check("uncompensated", plain)

		// The two modes evaluate the same prefix sums in the same order;
		// on this bounded domain they must agree essentially exactly.
		for j := range comp.Scores {
			if mathx.IsFinite(comp.Scores[j]) && mathx.RelDiff(comp.Scores[j], plain.Scores[j]) > tol {
				t.Fatalf("modes diverge at score %d: compensated %g vs plain %g",
					j, comp.Scores[j], plain.Scores[j])
			}
		}
	})
}

// FuzzWindowSweep differentially fuzzes the window sweep (the
// Epanechnikov and Uniform path of the two-pointer search) against the
// per-observation sorted sweep, kept as its reference, in both
// summation modes. On the lattice domain both evaluate the same
// in-range sets and the moment expansion is exact or nearly so, so
// they must agree to the conformance Exact class. The seeds cover a
// smooth lattice sample, heavy duplication in X, and a grid whose
// bandwidths are exact lattice distances (d == h for whole rings of
// neighbours, where the denominator is exactly zero).
func FuzzWindowSweep(f *testing.F) {
	var sx, sy, dx, dy, bx, by []float64
	for i := 0; i < 40; i++ {
		sx = append(sx, float64(i)/16)
		sy = append(sy, math.Sin(3*float64(i)/16))
		dx = append(dx, float64(i%4))
		dy = append(dy, float64(i)/40)
	}
	for i := 0; i <= 24; i++ {
		// Domain 3 and k = 24: DefaultGrid yields h_j = j/8 exactly.
		bx = append(bx, float64(i)/8)
		by = append(by, float64(i%3))
	}
	f.Add(fuzzLatticeSeed(sx, sy), uint8(10), uint8(0))
	f.Add(fuzzLatticeSeed(dx, dy), uint8(5), uint8(1))
	f.Add(fuzzLatticeSeed(bx, by), uint8(22), uint8(0))
	f.Add(fuzzLatticeSeed(bx, by), uint8(22), uint8(2))

	f.Fuzz(func(t *testing.T, data []byte, kByte, offByte uint8) {
		x, y := fuzzLatticeDecode(data, 96, offByte)
		if len(x) < 2 {
			t.Skip("need two observations")
		}
		g, err := DefaultGrid(x, 2+int(kByte)%24)
		if err != nil {
			t.Skip("degenerate domain")
		}
		ctx := context.Background()
		const tol = 1e-9
		for _, k := range []kernel.Kind{kernel.Epanechnikov, kernel.Uniform} {
			for _, st := range []Stability{Compensated, Uncompensated} {
				want, err := SortedGridSearchKernelStabilityContext(ctx, x, y, g, k, st)
				if err != nil {
					t.Fatalf("sorted reference: %v", err)
				}
				got, err := TwoPointerGridSearchKernelStabilityContext(ctx, x, y, g, k, st)
				if err != nil {
					t.Fatalf("window sweep: %v", err)
				}
				for j := range want.Scores {
					a, b := want.Scores[j], got.Scores[j]
					if mathx.IsFinite(a) != mathx.IsFinite(b) || mathx.RelDiff(a, b) > tol {
						t.Fatalf("%v/%v score %d: sorted %v, window %v (n=%d k=%d)", k, st, j, a, b, len(x), g.Len())
					}
				}
				if got.Index != want.Index {
					a, b := want.Scores[want.Index], want.Scores[got.Index]
					if mathx.RelDiff(a, b) > tol {
						t.Fatalf("%v/%v arg-min %d differs from sorted %d and is no near-tie (%v vs %v)",
							k, st, got.Index, want.Index, b, a)
					}
				}
			}
		}
	})
}
