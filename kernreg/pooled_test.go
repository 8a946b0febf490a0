package kernreg

import (
	"strings"
	"testing"
)

func TestPooledMatchesUnpooled(t *testing.T) {
	x, y := paperData(300, 17)
	got, err := SelectBandwidth(x, y, WithMethod(MethodTwoPointer), GridSize(40), Pooled())
	if err != nil {
		t.Fatal(err)
	}
	// The pooled path scores the grid on the calling goroutine; the
	// unpooled one shares it across up to Workers goroutines.
	for _, workers := range []int{0, 1, 3} {
		want, err := SelectBandwidth(x, y, WithMethod(MethodTwoPointer), GridSize(40), Workers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if got.Bandwidth != want.Bandwidth || got.CV != want.CV || got.Index != want.Index {
			t.Errorf("pooled selection %+v differs from unpooled with Workers(%d) %+v", got, workers, want)
		}
	}
	if got.Grid != nil || got.Scores != nil {
		t.Errorf("pooled selection must not retain Grid/Scores: %+v", got)
	}
	if got.Method != MethodTwoPointer {
		t.Errorf("pooled selection method = %v", got.Method)
	}
	// Explicit grid range too.
	want, err := SelectBandwidth(x, y, WithMethod(MethodTwoPointer), GridSize(16), GridRange(0.1, 2))
	if err != nil {
		t.Fatal(err)
	}
	got, err = SelectBandwidth(x, y, WithMethod(MethodTwoPointer), GridSize(16), GridRange(0.1, 2), Pooled())
	if err != nil {
		t.Fatal(err)
	}
	if got.Bandwidth != want.Bandwidth || got.Index != want.Index {
		t.Errorf("pooled ranged selection %+v differs from unpooled %+v", got, want)
	}
}

// TestPooledOptionValidation: Pooled runs the local-constant CV
// two-pointer search only, so every other method, estimator or
// criterion, and KeepScores, is an error rather than silently ignored.
func TestPooledOptionValidation(t *testing.T) {
	x, y := paperData(64, 2)
	cases := []struct {
		name string
		opts []Option
	}{
		{"default sorted", nil},
		{"naive", []Option{WithMethod(MethodNaive)}},
		{"numerical", []Option{WithMethod(MethodNumerical)}},
		{"numerical keep-scores", []Option{WithMethod(MethodNumerical), KeepScores()}},
		{"twopointer-parallel", []Option{WithMethod(MethodTwoPointerParallel)}},
		{"bagged", []Option{WithMethod(MethodBagged)}},
		{"twopointer keep-scores", []Option{WithMethod(MethodTwoPointer), KeepScores()}},
		{"twopointer local-linear", []Option{WithMethod(MethodTwoPointer), WithEstimator(LocalLinear)}},
		{"twopointer local-linear keep-scores", []Option{WithMethod(MethodTwoPointer), WithEstimator(LocalLinear), KeepScores()}},
		{"sorted AICc", []Option{WithCriterion(CriterionAICc)}},
		{"naive AICc keep-scores", []Option{WithMethod(MethodNaive), WithCriterion(CriterionAICc), KeepScores()}},
		{"sorted local-linear keep-scores", []Option{WithEstimator(LocalLinear), KeepScores()}},
	}
	for _, tc := range cases {
		sel, err := SelectBandwidth(x, y, append(tc.opts, Pooled())...)
		if err == nil {
			t.Errorf("%s: Pooled accepted (%d scores returned)", tc.name, len(sel.Scores))
		}
	}
	if _, err := SelectBandwidth(x, y, WithMethod(MethodTwoPointer), WithKernel("uniform"), Pooled()); err != nil {
		t.Errorf("twopointer/uniform Pooled: %v", err)
	}
}

// TestMethodNames pins every Method's name: they are wire names of
// kernregd, kerncoord and the CLIs, and index the method table.
func TestMethodNames(t *testing.T) {
	want := []string{"sorted", "sorted-parallel", "sorted-f32", "naive", "numerical", "gpu", "gpu-tiled", "twopointer", "twopointer-parallel", "twopointer-f32", "bagged"}
	if len(allMethods) != len(want) {
		t.Fatalf("%d methods, want %d", len(allMethods), len(want))
	}
	for i, m := range allMethods {
		if int(m) != i || m.String() != want[i] {
			t.Errorf("Method %d = %d %q, want %d %q", i, int(m), m.String(), i, want[i])
		}
	}
	if s := Method(len(want)).String(); !strings.Contains(s, "kernreg.Method") {
		t.Errorf("Method past the table String() = %q", s)
	}
}

// TestPooledSteadyStateZeroAlloc is the allocation contract of the
// Pooled fast path: after one warm-up call (which populates the
// workspace pool), a selection through the full public API performs
// zero heap allocations. The options slice is pre-built — the variadic
// call site itself would otherwise allocate it per run, which is the
// caller's choice, not the library's.
func TestPooledSteadyStateZeroAlloc(t *testing.T) {
	if testRaceEnabled {
		t.Skip("race runtime adds bookkeeping allocations")
	}
	x, y := paperData(512, 9)
	opts := []Option{WithMethod(MethodTwoPointer), GridSize(50), Pooled()}
	if _, err := SelectBandwidth(x, y, opts...); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, err := SelectBandwidth(x, y, opts...); err != nil {
			t.Fatal(err)
		}
	})
	// A GC during the measurement may empty the sync.Pool and force one
	// refill; amortised over 100 runs that is well under one object per
	// op, while a genuinely allocating path costs several per op.
	if avg >= 1 {
		t.Errorf("pooled SelectBandwidth allocates %.2f objects/op steady-state, want 0", avg)
	}
}
