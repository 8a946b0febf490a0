package conformance

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/kernel"
	"repro/internal/mvreg"
)

// TestMVMeshAgainstOracle runs every mesh-class selector over the
// multivariate corpus and checks the Exact policy against the per-cell
// CVScore oracle.
func TestMVMeshAgainstOracle(t *testing.T) {
	for _, d := range MVCorpus() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			o := MVOracleSearch(d.S, d.Grids, kernel.Epanechnikov)
			for _, s := range MVSelectors() {
				if !s.Mesh {
					continue
				}
				got, err := s.Run(context.Background(), d.S, d.Grids)
				if err != nil {
					t.Fatalf("%s: %v", s.Name, err)
				}
				if err := CheckMVExact(got, o, d.Grids); err != nil {
					t.Errorf("%s: %v", s.Name, err)
				}
			}
		})
	}
}

// TestMVSelfConsistency checks the non-mesh selectors: the reported CV
// matches the objective at the reported H, and no single-coordinate
// move improves it (the coordinate-wise-optimum contract).
func TestMVSelfConsistency(t *testing.T) {
	for _, d := range MVCorpus() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			for _, s := range MVSelectors() {
				if s.Mesh {
					continue
				}
				got, err := s.Run(context.Background(), d.S, d.Grids)
				if err != nil {
					t.Fatalf("%s: %v", s.Name, err)
				}
				if err := CheckMVSelfConsistent(got, d.S, d.Grids, mvSelectorKernel(s.Name)); err != nil {
					t.Errorf("%s: %v", s.Name, err)
				}
			}
		})
	}
}

// TestMVDegenerateContract pins the sub-spacing policy end to end: a
// grid whose smallest cell masks every observation scores exactly 0
// there, the global minimum, and the search resolves the all-zero tie
// to the lowest-index cell.
func TestMVDegenerateContract(t *testing.T) {
	for _, d := range MVCorpus() {
		if d.Name != "clustered-subspacing" {
			continue
		}
		o := MVOracleSearch(d.S, d.Grids, kernel.Epanechnikov)
		if o.Scores[0] != 0 {
			t.Fatalf("oracle sub-spacing cell scores %g, want exactly 0", o.Scores[0])
		}
		got, err := mvreg.MeshSearchContext(context.Background(), d.S, d.Grids, kernel.Epanechnikov)
		if err != nil {
			t.Fatal(err)
		}
		if got.CV != 0 {
			t.Errorf("mesh CV = %g, want exactly 0", got.CV)
		}
		if got.H[0] != d.Grids[0][0] || got.H[1] != d.Grids[1][0] {
			t.Errorf("tie resolved to %v, want the lowest-index cell", got.H)
		}
	}
}

// TestMVInvariants runs the metamorphic suite for every selector over
// the corpus.
func TestMVInvariants(t *testing.T) {
	for _, d := range MVCorpus() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			// Per-kernel oracles, built lazily — only the non-exact
			// transforms need one, as the tie arbiter.
			oracles := map[kernel.Kind]MVOracle{}
			arbiter := func(k kernel.Kind) MVOracle {
				o, ok := oracles[k]
				if !ok {
					o = MVOracleSearch(d.S, d.Grids, k)
					oracles[k] = o
				}
				return o
			}
			for _, s := range MVSelectors() {
				base, err := s.Run(context.Background(), d.S, d.Grids)
				if err != nil {
					t.Fatalf("%s base: %v", s.Name, err)
				}
				for _, inv := range MVInvariants() {
					rng := rand.New(rand.NewSource(int64(len(d.Name)*1000 + len(s.Name))))
					ts, tg, hScale := inv.Transform(d.S, d.Grids, rng)
					trans, err := s.Run(context.Background(), ts, tg)
					if err != nil {
						t.Fatalf("%s/%s transformed: %v", s.Name, inv.Name, err)
					}
					var o MVOracle
					if !inv.Exact {
						o = arbiter(mvSelectorKernel(s.Name))
					}
					if err := CompareMVInvariant(inv, base, trans, hScale, o, d.Grids); err != nil {
						t.Errorf("%s/%s: %v", s.Name, inv.Name, err)
					}
				}
			}
		})
	}
}
