package bandwidth

import (
	"context"
	"math"

	"repro/internal/kernel"
)

// AICc bandwidth selection — the other selector the R np package offers
// (bwmethod="cv.aic", Hurvich, Simonoff & Tsai 1998). Instead of
// leave-one-out residuals it penalises the full-sample fit by the
// smoother's effective degrees of freedom:
//
//	AICc(h) = ln(σ̂²(h)) + [1 + tr(H)/n] / [1 − (tr(H)+2)/n]
//
// where ĝ = H·y is the Nadaraya–Watson fit, σ̂² = n⁻¹Σ(Yᵢ − ĝ(Xᵢ))², and
// tr(H) = Σᵢ K(0)/Σₗ K((Xᵢ−Xₗ)/h).
//
// Everything needed — the full-sample numerator/denominator sums at every
// observation — comes from the same sorted prefix sums as the CV sweep,
// so the entire ascending grid again costs one O(n) neighbour merge per
// observation.

// AICcScore evaluates the corrected-AIC criterion at a single bandwidth
// in O(n²) (any kernel). Bandwidths whose effective degrees of freedom
// reach the sample size (tr(H)+2 ≥ n, a degenerate interpolating fit)
// score +Inf, as do non-positive bandwidths.
//
//kernvet:ignore compsum -- naive reference implementation: plain left-to-right sums are the oracle the fast paths are tested against
func AICcScore(x, y []float64, h float64, k kernel.Kind) float64 {
	if !(h > 0) {
		return math.Inf(1)
	}
	n := len(x)
	k0 := k.Weight(0)
	var rss, trH float64
	for i := 0; i < n; i++ {
		var num, den float64
		for l := 0; l < n; l++ {
			w := k.Weight((x[i] - x[l]) / h)
			num += y[l] * w
			den += w
		}
		if den <= 0 {
			return math.Inf(1) // isolated point: fit undefined
		}
		r := y[i] - num/den
		rss += r * r
		trH += k0 / den
	}
	return aiccFromParts(rss, trH, n)
}

func aiccFromParts(rss, trH float64, n int) float64 {
	nf := float64(n)
	if rss <= 0 {
		rss = math.SmallestNonzeroFloat64
	}
	denom := 1 - (trH+2)/nf
	if denom <= 0 {
		return math.Inf(1)
	}
	return math.Log(rss/nf) + (1+trH/nf)/denom
}

// NaiveGridSearchAICcContext evaluates AICcScore per grid point, any
// kernel. ctx is polled before each candidate's O(n²) score;
// cancellation returns ctx.Err() and a zero Result.
func NaiveGridSearchAICcContext(ctx context.Context, x, y []float64, g Grid, k kernel.Kind) (Result, error) {
	if err := validateSample(x, y); err != nil {
		return Result{}, err
	}
	if err := g.Validate(); err != nil {
		return Result{}, err
	}
	scores := make([]float64, g.Len())
	for j, h := range g.H {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		scores[j] = AICcScore(x, y, h, k)
	}
	return Best(g, scores), nil
}

// SortedGridSearchAICcContext runs the AICc selection over an ascending
// grid with the sorted incremental sweep (Epanechnikov, compensated
// prefix sums). The full-sample sums include the self term, which leads
// each observation's neighbour list at distance zero, so no
// leave-one-out correction is needed; per observation and bandwidth the
// sweep yields num, den, and the trace contribution K(0)/den. ctx is
// polled once per observation; cancellation returns ctx.Err() and a
// zero Result.
func SortedGridSearchAICcContext(ctx context.Context, x, y []float64, g Grid) (Result, error) {
	if err := validateSample(x, y); err != nil {
		return Result{}, err
	}
	if err := g.Validate(); err != nil {
		return Result{}, err
	}
	n, k := len(x), g.Len()
	ws := AcquireWorkspace(n, k)
	defer ws.Release()
	num, den := ws.sumBufs(k)
	rss := make([]float64, k)
	trH := make([]float64, k)
	bad := make([]bool, k) // any isolated point at this h
	const k0 = 0.75        // Epanechnikov K(0)
	err := ws.neighbours(x, y).rows(ctx, 0, 1, true, ws, func(yi float64, delta, yv []float64) {
		epanechnikovSums(delta, yv, g.H, true, num, den)
		for j := range num {
			if den[j] <= 0 {
				bad[j] = true
				continue
			}
			r := yi - num[j]/den[j]
			rss[j] += r * r
			trH[j] += k0 / den[j]
		}
	})
	if err != nil {
		return Result{}, err
	}
	scores := make([]float64, k)
	for j := range scores {
		if bad[j] {
			scores[j] = math.Inf(1)
			continue
		}
		scores[j] = aiccFromParts(rss[j], trH[j], n)
	}
	return Best(g, scores), nil
}
