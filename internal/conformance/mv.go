package conformance

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/kernel"
	"repro/internal/mathx"
	"repro/internal/mvreg"
)

// Multivariate conformance: the univariate engine is typed to scalar
// selectors, so the mesh sweep and coordinate descent get their own
// small registry here, under the same policy vocabulary (exactCVTol,
// exact-tie escape, metamorphic invariants).
//
// The oracle is mvreg.CVScore evaluated per cell in odometer order
// (dimension 0 fastest) — the definitional objective with no
// incremental shortcut to get wrong. MeshSearchContext is Exact-class:
// same arg-min cell, CV within exactCVTol, with the exact-tie escape when
// the oracle itself cannot separate two cells. CoordinateDescent has no
// global-optimality contract; its policy is self-consistency (the
// reported CV is the oracle at the reported H) plus coordinate-wise
// optimality (no single-coordinate grid move improves the objective).

// MVDataset is one multivariate conformance case.
type MVDataset struct {
	Name  string
	S     mvreg.Sample
	Grids [][]float64
}

// mvGrid builds k ascending candidates from lo to hi.
func mvGrid(lo, hi float64, k int) []float64 {
	g := make([]float64, k)
	for q := 0; q < k; q++ {
		g[q] = lo + (hi-lo)*float64(q)/float64(k-1)
	}
	return g
}

// MVCorpus returns the multivariate conformance datasets. Every case is
// small enough for the O(n²·cells·d) oracle.
func MVCorpus() []MVDataset {
	var out []MVDataset

	// d=1: the mesh sweep must reduce to the univariate contract.
	uni := mvreg.Sample{}
	for i := 0; i < 48; i++ {
		v := float64(i) / 16
		uni.X = append(uni.X, []float64{v})
		uni.Y = append(uni.Y, math.Sin(3*v))
	}
	out = append(out, MVDataset{Name: "uni-line", S: uni, Grids: [][]float64{mvGrid(0.1, 2.5, 10)}})

	// d=2: smooth surface on the unit square.
	rng := rand.New(rand.NewSource(61))
	sq := mvreg.Sample{}
	for i := 0; i < 64; i++ {
		a, b := rng.Float64(), rng.Float64()
		sq.X = append(sq.X, []float64{a, b})
		sq.Y = append(sq.Y, a+2*b*b+0.2*rng.NormFloat64())
	}
	out = append(out, MVDataset{Name: "square-smooth", S: sq,
		Grids: [][]float64{mvGrid(0.1, 1, 6), mvGrid(0.1, 1, 6)}})

	// d=2 with per-axis grids of different lengths and ranges.
	an := mvreg.Sample{}
	for i := 0; i < 80; i++ {
		a, b := rng.Float64(), rng.Float64()
		an.X = append(an.X, []float64{a, b})
		an.Y = append(an.Y, 0.1*a+math.Sin(6*math.Pi*b)+0.1*rng.NormFloat64())
	}
	out = append(out, MVDataset{Name: "square-anisotropic", S: an,
		Grids: [][]float64{mvGrid(0.2, 1.2, 5), mvGrid(0.05, 0.7, 7)}})

	// Duplicate regressor rows with conflicting responses: sort ties in
	// every axis order.
	out = append(out, MVDataset{Name: "duplicate-rows", S: mvreg.Sample{
		X: [][]float64{{0.5, 0.5}, {0.5, 0.5}, {0.1, 0.9}, {0.9, 0.1}, {0.5, 0.5}, {0.3, 0.3}},
		Y: []float64{1, -1, 2, -2, 0, 0.5},
	}, Grids: [][]float64{mvGrid(0.2, 1, 4), mvGrid(0.2, 1, 4)}})

	// Constant Y: every cell's score is rounding noise around zero — the
	// exact-tie escape and the lowest-index tie-break under one roof.
	cy := mvreg.Sample{}
	for i := 0; i < 40; i++ {
		cy.X = append(cy.X, []float64{rng.Float64(), rng.Float64()})
		cy.Y = append(cy.Y, 7)
	}
	out = append(out, MVDataset{Name: "constant-y", S: cy,
		Grids: [][]float64{mvGrid(0.2, 0.8, 3), mvGrid(0.2, 0.8, 3)}})

	// Clustered X with a sub-spacing candidate: the smallest cell masks
	// every observation, scoring exactly 0 — the degenerate contract the
	// univariate battery pins, now in 2-d.
	cl := mvreg.Sample{}
	for i := 0; i < 30; i++ {
		c := float64(i % 3)
		cl.X = append(cl.X, []float64{c + 1e-4*rng.Float64(), c + 1e-4*rng.Float64()})
		cl.Y = append(cl.Y, float64(i%5))
	}
	out = append(out, MVDataset{Name: "clustered-subspacing", S: cl,
		Grids: [][]float64{{1e-7, 0.5, 1.5}, {1e-7, 0.5, 1.5}}})

	// d=3 with unequal per-axis grid lengths.
	tv := mvreg.Sample{}
	for i := 0; i < 40; i++ {
		a, b, c := rng.Float64(), rng.Float64(), rng.Float64()
		tv.X = append(tv.X, []float64{a, b, c})
		tv.Y = append(tv.Y, a+0.5*b*b+math.Sin(4*c)+0.1*rng.NormFloat64())
	}
	out = append(out, MVDataset{Name: "trivariate", S: tv,
		Grids: [][]float64{mvGrid(0.2, 0.9, 3), mvGrid(0.3, 0.6, 2), mvGrid(0.25, 1.2, 4)}})

	// X on a 1/1024 lattice with grid values equal to exact inter-point
	// distances: |d| == h ties are exact in float64. The naive oracle
	// includes those terms with weight exactly 0; the sweep excludes them
	// before its prefix cancellation — both must agree bit-for-policy.
	bt := mvreg.Sample{}
	for i := 0; i < 16; i++ {
		bt.X = append(bt.X, []float64{float64(i%4) * 0.25, float64(i/4) * 0.25})
		bt.Y = append(bt.Y, float64((i*7)%5)-2)
	}
	out = append(out, MVDataset{Name: "boundary-ties", S: bt,
		Grids: [][]float64{{0.25, 0.5, 0.75}, {0.25, 0.5, 0.75}}})

	return out
}

// MVOracle is the naive per-cell search result with the full score
// vector in odometer order (dimension 0 fastest) for tie arbitration.
type MVOracle struct {
	H      []float64
	CV     float64
	Index  int // linear cell index in odometer order
	Scores []float64
}

// MVOracleSearch evaluates mvreg.CVScore on every cell.
func MVOracleSearch(s mvreg.Sample, grids [][]float64, k kernel.Kind) MVOracle {
	d := len(grids)
	idx := make([]int, d)
	h := make([]float64, d)
	o := MVOracle{CV: math.Inf(1), Index: -1}
	for {
		for j := range h {
			h[j] = grids[j][idx[j]]
		}
		cv := mvreg.CVScore(s, h, k)
		if cv < o.CV {
			o.CV = cv
			o.Index = len(o.Scores)
			o.H = append(o.H[:0], h...)
		}
		o.Scores = append(o.Scores, cv)
		j := 0
		for ; j < d; j++ {
			idx[j]++
			if idx[j] < len(grids[j]) {
				break
			}
			idx[j] = 0
		}
		if j == d {
			break
		}
	}
	return o
}

// mvCellIndex returns the odometer-order linear index of the cell whose
// per-dimension bandwidths equal hs, or -1 when hs is not on the mesh.
func mvCellIndex(grids [][]float64, hs []float64) int {
	lin, stride := 0, 1
	for j, g := range grids {
		q := -1
		for p, v := range g {
			if v == hs[j] {
				q = p
				break
			}
		}
		if q < 0 {
			return -1
		}
		lin += q * stride
		stride *= len(g)
	}
	return lin
}

// MVSelector is one registered multivariate search backend.
type MVSelector struct {
	Name string
	// Mesh marks Exact-class mesh searches (checked against the oracle
	// arg-min); the rest are checked for self-consistency and
	// coordinate-wise optimality.
	Mesh bool
	Run  func(ctx context.Context, s mvreg.Sample, grids [][]float64) (mvreg.Result, error)
}

// MVSelectors returns the multivariate registry.
func MVSelectors() []MVSelector {
	return []MVSelector{
		{
			Name: "mesh-sweep", Mesh: true,
			Run: func(ctx context.Context, s mvreg.Sample, grids [][]float64) (mvreg.Result, error) {
				return mvreg.MeshSearchContext(ctx, s, grids, kernel.Epanechnikov)
			},
		},
		{
			// mesh-parallel shards the mesh's columns across 3 goroutines;
			// the Exact mesh policy plus the bit-identity test in
			// internal/mvreg hold it to the sequential sweep's answer.
			Name: "mesh-parallel", Mesh: true,
			Run: func(ctx context.Context, s mvreg.Sample, grids [][]float64) (mvreg.Result, error) {
				return mvreg.MeshSearchParallelContext(ctx, s, grids, kernel.Epanechnikov, 3)
			},
		},
		{
			Name: "mesh-naive-triangular", Mesh: false,
			// The non-Epanechnikov mesh exercises the per-cell fallback;
			// no Epanechnikov oracle applies, so it is checked for
			// self-consistency against its own kernel's CVScore.
			Run: func(ctx context.Context, s mvreg.Sample, grids [][]float64) (mvreg.Result, error) {
				return mvreg.MeshSearchContext(ctx, s, grids, kernel.Triangular)
			},
		},
		{
			Name: "coordinate-descent", Mesh: false,
			Run: func(ctx context.Context, s mvreg.Sample, grids [][]float64) (mvreg.Result, error) {
				return mvreg.CoordinateDescentContext(ctx, s, grids, 0)
			},
		},
	}
}

// mvSelectorKernel maps a registry entry to the kernel its objective
// uses (for self-consistency re-evaluation).
func mvSelectorKernel(name string) kernel.Kind {
	if name == "mesh-naive-triangular" {
		return kernel.Triangular
	}
	return kernel.Epanechnikov
}

// CheckMVExact applies the Exact policy to a mesh search result: same
// arg-min cell as the oracle (with the exact-tie escape) and CV within
// exactCVTol.
func CheckMVExact(got mvreg.Result, o MVOracle, grids [][]float64) error {
	lin := mvCellIndex(grids, got.H)
	if lin < 0 {
		return fmt.Errorf("selected H %v is not a mesh cell", got.H)
	}
	if lin == o.Index {
		if !agreeCV(got.CV, o.CV, exactCVTol) {
			return fmt.Errorf("CV %g differs from oracle %g by %g (> %g)",
				got.CV, o.CV, mathx.RelDiff(got.CV, o.CV), exactCVTol)
		}
		return nil
	}
	oa, ob := o.Scores[o.Index], o.Scores[lin]
	if !agreeCV(oa, ob, exactCVTol) {
		return fmt.Errorf("arg-min cell %d (H=%v, cv=%g) differs from oracle cell %d (H=%v, cv=%g) and is no exact tie",
			lin, got.H, got.CV, o.Index, o.H, o.CV)
	}
	if !agreeCV(got.CV, ob, exactCVTol) {
		return fmt.Errorf("tie CV %g differs from oracle score %g at cell %d", got.CV, ob, lin)
	}
	return nil
}

// CheckMVSelfConsistent verifies that the reported CV is the oracle
// objective at the reported H, and that no single-coordinate move on
// the grid improves it beyond tolerance.
func CheckMVSelfConsistent(got mvreg.Result, s mvreg.Sample, grids [][]float64, k kernel.Kind) error {
	ref := mvreg.CVScore(s, got.H, k)
	if !agreeCV(got.CV, ref, exactCVTol) {
		return fmt.Errorf("reported CV %g does not match the objective %g at H=%v (reldiff %g > %g)",
			got.CV, ref, got.H, mathx.RelDiff(got.CV, ref), exactCVTol)
	}
	for dim := range grids {
		for _, hc := range grids[dim] {
			h := append([]float64(nil), got.H...)
			h[dim] = hc
			if cv := mvreg.CVScore(s, h, k); cv < ref && !agreeCV(cv, ref, exactCVTol) {
				return fmt.Errorf("coordinate move dim %d h=%g improves CV: %g < %g", dim, hc, cv, ref)
			}
		}
	}
	return nil
}

// MVInvariant is one metamorphic transform over a multivariate case.
type MVInvariant struct {
	Name  string
	Exact bool // bitwise-equal CV and (scaled) H required
	// Transform returns the transformed sample and grids plus the
	// per-dimension factor relating selected bandwidths.
	Transform func(s mvreg.Sample, grids [][]float64, rng *rand.Rand) (mvreg.Sample, [][]float64, []float64)
}

// MVInvariants returns the multivariate metamorphic suite.
//
//   - scale-axis-pow2 multiplies one axis (and its grid) by 2. Exponent
//     shifts commute with every intermediate — axis distances, d²/h²,
//     the product weights — so the run is the bitwise image.
//   - flip-y negates Y: the numerator flips term by term, the squared
//     residual is unchanged bit for bit.
//   - permute reorders observations: re-association noise only, so the
//     class tolerance applies with the oracle arbitrating ties.
func MVInvariants() []MVInvariant {
	return []MVInvariant{
		{
			Name: "scale-axis0-pow2", Exact: true,
			Transform: func(s mvreg.Sample, grids [][]float64, _ *rand.Rand) (mvreg.Sample, [][]float64, []float64) {
				return mvScaleAxis(s, grids, 0)
			},
		},
		{
			Name: "scale-last-axis-pow2", Exact: true,
			Transform: func(s mvreg.Sample, grids [][]float64, _ *rand.Rand) (mvreg.Sample, [][]float64, []float64) {
				return mvScaleAxis(s, grids, len(grids)-1)
			},
		},
		{
			Name: "flip-y", Exact: true,
			Transform: func(s mvreg.Sample, grids [][]float64, _ *rand.Rand) (mvreg.Sample, [][]float64, []float64) {
				t := mvreg.Sample{X: s.X, Y: make([]float64, len(s.Y))}
				for i, v := range s.Y {
					t.Y[i] = -v
				}
				return t, grids, mvOnes(len(grids))
			},
		},
		{
			Name: "permute", Exact: false,
			Transform: func(s mvreg.Sample, grids [][]float64, rng *rand.Rand) (mvreg.Sample, [][]float64, []float64) {
				perm := rng.Perm(len(s.X))
				t := mvreg.Sample{X: make([][]float64, len(s.X)), Y: make([]float64, len(s.Y))}
				for i, p := range perm {
					t.X[i] = s.X[p]
					t.Y[i] = s.Y[p]
				}
				return t, grids, mvOnes(len(grids))
			},
		},
	}
}

// mvScaleAxis doubles axis a of the sample and its grid.
func mvScaleAxis(s mvreg.Sample, grids [][]float64, a int) (mvreg.Sample, [][]float64, []float64) {
	t := mvreg.Sample{X: make([][]float64, len(s.X)), Y: s.Y}
	for i, row := range s.X {
		r := append([]float64(nil), row...)
		r[a] *= 2
		t.X[i] = r
	}
	tg := make([][]float64, len(grids))
	for j, g := range grids {
		if j == a {
			sg := make([]float64, len(g))
			for q, v := range g {
				sg[q] = 2 * v
			}
			tg[j] = sg
		} else {
			tg[j] = g
		}
	}
	scale := mvOnes(len(grids))
	scale[a] = 2
	return t, tg, scale
}

func mvOnes(d int) []float64 {
	v := make([]float64, d)
	for i := range v {
		v[i] = 1
	}
	return v
}

// CompareMVInvariant checks a transformed run against the base run.
// For non-exact transforms the oracle's score vector arbitrates arg-min
// flips, exactly as the univariate suite does.
func CompareMVInvariant(inv MVInvariant, base, trans mvreg.Result, hScale []float64, o MVOracle, grids [][]float64) error {
	if inv.Exact {
		for j := range base.H {
			if trans.H[j] != hScale[j]*base.H[j] {
				return fmt.Errorf("selected H %v is not the scaled image of %v (scale %v)", trans.H, base.H, hScale)
			}
		}
		if trans.CV != base.CV {
			return fmt.Errorf("CV changed bitwise: %g vs %g", base.CV, trans.CV)
		}
		return nil
	}
	const tol = 1e-8 // float64 re-association noise, as in the univariate suite
	baseLin := mvCellIndex(grids, base.H)
	transLin := mvCellIndex(grids, trans.H)
	if transLin == baseLin {
		if !agreeCV(trans.CV, base.CV, tol) {
			return fmt.Errorf("CV moved by %g (> %g): %g vs %g", mathx.RelDiff(base.CV, trans.CV), tol, base.CV, trans.CV)
		}
		return nil
	}
	if baseLin >= 0 && transLin >= 0 && len(o.Scores) > baseLin && len(o.Scores) > transLin {
		a, b := o.Scores[baseLin], o.Scores[transLin]
		if agreeCV(a, b, tol) && agreeCV(trans.CV, a, tol) {
			return nil // near-tie: the objective cannot separate the two cells
		}
	}
	return fmt.Errorf("arg-min cell changed %v → %v and is no near-tie", base.H, trans.H)
}
