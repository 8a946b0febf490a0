package method

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/data"
	"repro/internal/kernel"
)

// TestTableRows pins the invariants the callers rely on: names are
// unique, every supported search has an engine except the two kernreg
// runs itself, and every shardable row runs local-constant CV.
func TestTableRows(t *testing.T) {
	seen := map[string]bool{}
	for i, r := range Rows() {
		if seen[r.Name] {
			t.Errorf("row %d: duplicate name %q", i, r.Name)
		}
		seen[r.Name] = true
		if j, ok := Lookup(r.Name); !ok || j != i {
			t.Errorf("Lookup(%q) = %d, %v; want %d", r.Name, j, ok, i)
		}
		if got, ok := At(i); !ok || got.Name != r.Name {
			t.Errorf("At(%d) = %q, %v", i, got.Name, ok)
		}
		for _, o := range []Objective{CV, LocalLinearCV, AICc} {
			s := r.Search(o)
			ownPath := o == CV && (r.Name == "numerical" || r.Name == "bagged")
			if len(s.Kernels) > 0 && s.Run == nil && !ownPath {
				t.Errorf("%s: %s lists kernels but has no engine", r.Name, o)
			}
			if len(s.Kernels) == 0 && s.Run != nil {
				t.Errorf("%s: %s has an engine but no kernels", r.Name, o)
			}
		}
		if r.Shardable && r.CV.Run == nil {
			t.Errorf("%s: shardable without a CV engine", r.Name)
		}
	}
	if _, ok := At(len(Rows())); ok {
		t.Error("At accepted an index past the table")
	}
	if _, ok := At(-1); ok {
		t.Error("At accepted a negative index")
	}
}

func TestShard(t *testing.T) {
	r, err := Shard("")
	if err != nil || r.Name != "sorted" {
		t.Fatalf(`Shard("") = %q, %v; want sorted`, r.Name, err)
	}
	for _, name := range []string{"gpu", "bagged", "numerical", "mystery"} {
		_, err := Shard(name)
		if err == nil {
			t.Errorf("Shard(%q) accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), "not shardable") || !strings.Contains(err.Error(), "twopointer-parallel") {
			t.Errorf("Shard(%q) error %q should list the shardable methods", name, err)
		}
	}
}

func TestCheck(t *testing.T) {
	i, _ := Lookup("twopointer")
	tp := Rows()[i]
	if err := tp.Check(CV, kernel.Triangular); err != nil {
		t.Errorf("twopointer/triangular: %v", err)
	}
	err := tp.Check(CV, kernel.Gaussian)
	if err == nil || !strings.Contains(err.Error(), "gaussian kernel") || !strings.Contains(err.Error(), "epanechnikov, uniform, triangular") {
		t.Errorf("twopointer/gaussian error %v should name the kernel and the accepted set", err)
	}
	if err := tp.Check(AICc, kernel.Epanechnikov); err == nil || !strings.Contains(err.Error(), "does not support AICc") {
		t.Errorf("twopointer AICc error %v", err)
	}
}

// TestTwoPointerLocalLinearMatchesSorted pins the rows that have no
// window sweep: twopointer's local-linear objective and its Triangular
// kernel run the sorted engines, so they equal sorted bit for bit.
func TestTwoPointerLocalLinearMatchesSorted(t *testing.T) {
	d := data.GeneratePaper(197, 11)
	g, err := bandwidth.DefaultGrid(d.X, 20)
	if err != nil {
		t.Fatal(err)
	}
	si, _ := Lookup("sorted")
	ti, _ := Lookup("twopointer")
	sorted, tp := Rows()[si], Rows()[ti]
	for _, c := range []struct {
		o Objective
		k kernel.Kind
	}{{LocalLinearCV, kernel.Epanechnikov}, {CV, kernel.Triangular}} {
		for _, st := range []bandwidth.Stability{bandwidth.Compensated, bandwidth.Uncompensated} {
			s := Spec{Kernel: c.k, Stability: st}
			want, err := sorted.Search(c.o).Run(context.Background(), d.X, d.Y, g, s)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tp.Search(c.o).Run(context.Background(), d.X, d.Y, g, s)
			if err != nil {
				t.Fatal(err)
			}
			if got.Index != want.Index || math.Float64bits(got.CV) != math.Float64bits(want.CV) {
				t.Errorf("%s/%v/%v: twopointer selects %d (cv %v), sorted %d (cv %v)", c.o, c.k, st, got.Index, got.CV, want.Index, want.CV)
			}
			for j := range want.Scores {
				if math.Float64bits(got.Scores[j]) != math.Float64bits(want.Scores[j]) {
					t.Errorf("%s/%v/%v: score %d differs bitwise: %v vs %v", c.o, c.k, st, j, got.Scores[j], want.Scores[j])
				}
			}
		}
	}
}
