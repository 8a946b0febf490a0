package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"time"
)

// options configure one benchmark run.
type options struct {
	w       workload
	seed    int64
	seconds time.Duration
	trace   bool
	// spanDir receives the traced run's spans.
	spanDir string
	// wrap, when set, wraps the kernregd handler; the self-tests use it
	// to plant a wrong answer.
	wrap func(http.Handler) http.Handler
}

// Shares of --seconds each phase measures.
const (
	// Untraced run: closed loop, then open loop.
	closedShare = 0.4
	openShare   = 0.6
	// Traced run: untraced closed loop (A), traced closed loop (B),
	// traced open loop (C), then the layer phase (D).
	tracedLoopShare = 0.2
	layerShare      = 0.4
)

// setupRuns is how many times an untraced run sets the system up;
// setup_s is their median and the last one is measured.
const setupRuns = 5

// rounds is how many times an untraced run alternates its closed and
// open loops; throughput_rps is the median of the rounds' rates.
const rounds = 6

// lagBoundMs is the generator-health bound: an open loop whose scheduler
// ran later than this at the 99th percentile measured the load generator,
// not the system, and the run is invalid.
const lagBoundMs = 100

// hitShareTolerance is how far coord-mixed's measured cache-hit share may
// drift from the designed 1-in-repeatEvery before the run is invalid:
// the load generator or the cache no longer does what the workload says.
const hitShareTolerance = 0.05

// check is one validity condition of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// result is one run's outcome.
type result struct {
	opts      options
	metrics   map[string]float64
	samples   map[string]int // observations behind a percentile or median
	na        map[string]bool
	notes     map[string]float64
	checks    []check
	attempted int
	failed    int
	host      hostInfo
	spanFile  string
}

func newResult(o options) *result {
	return &result{
		opts:    o,
		metrics: map[string]float64{},
		samples: map[string]int{},
		na:      map[string]bool{},
		notes:   map[string]float64{},
	}
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// correct reports whether every answer was right and every validity
// check held.
func (r *result) correct() bool {
	for _, c := range r.checks {
		if !c.OK {
			return false
		}
	}
	return r.failed == 0
}

// clientCount is the load's connection budget: two clients, never more
// than the host has CPUs.
func clientCount() int { return min(2, runtime.NumCPU()) }

// runBench runs one workload and returns its metrics.
func runBench(ctx context.Context, o options) (*result, error) {
	if o.trace {
		return runTraced(ctx, o)
	}
	clients := clientCount()
	res := newResult(o)
	src := newSource(o.w, o.seed)
	var (
		sys    *system
		warm   []record
		setups []float64
	)
	for i := 0; i < setupRuns; i++ {
		if sys != nil {
			sys.close()
		}
		runtime.GC()
		start := time.Now()
		s, wr, err := setUp(ctx, o, src, clients, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		sys, warm = s, wr
	}
	defer sys.close()
	for _, r := range warm {
		src.answered(r.smp, false)
	}

	// The loops alternate in rounds, so that each metric is measured
	// across the whole run rather than in one stretch of it; a slow drift
	// in the host's speed then weighs on every metric alike.
	var (
		closed, open []record
		rates        []float64
		lags         []time.Duration
	)
	runtime.GC()
	for i := 0; i < rounds; i++ {
		c, rps := sys.closedLoop(ctx, src, clients, scale(o.seconds, closedShare/rounds), nil)
		op, l := sys.openLoop(ctx, src, clients, o.w.openRPS, scale(o.seconds, openShare/rounds), nil)
		closed, open, lags = append(closed, c...), append(open, op...), append(lags, l...)
		rates = append(rates, rps)
	}

	// Everything below is outside the timed window.
	recs := append(closed, open...)
	if err := verify(res, warm, recs, nil); err != nil {
		return nil, err
	}
	openMs := make([]float64, len(open))
	for i, r := range open {
		openMs[i] = ms(r.latency)
	}
	res.metrics["setup_s"] = median(setups)
	res.samples["setup_s"] = len(setups)
	res.metrics["throughput_rps"] = median(rates)
	res.samples["throughput_rps"] = len(closed)
	for _, name := range []string{"latency_p50_ms", "latency_p90_ms"} {
		res.samples[name] = len(openMs)
	}
	res.metrics["latency_p50_ms"] = windowed(openMs, 0.50)
	res.metrics["latency_p90_ms"] = windowed(openMs, 0.90)
	res.notes["pooled_latency_p50_ms"] = percentile(openMs, 0.50)
	res.notes["pooled_latency_p90_ms"] = percentile(openMs, 0.90)
	// p99 is a note, not a metric: only select-small has the thousands of
	// open-loop samples it needs, and on a shared 2-core host its
	// run-to-run spread is wider than any bound the benchmark may set.
	res.notes["latency_p99_ms"] = percentile(openMs, 0.99)
	res.metrics["peak_rss_mb"] = peakRSSMB()

	closedMs := make([]float64, len(closed))
	for i, r := range closed {
		closedMs[i] = ms(r.latency)
	}
	res.notes["closed_latency_p50_ms"] = percentile(closedMs, 0.5)
	res.notes["open_rate_rps"] = o.w.openRPS
	res.notes["open_requests"] = float64(len(open))
	lagP99 := percentile(durationsMs(lags), 0.99)
	res.notes["loadgen.lag_p99_ms"] = lagP99
	res.check("generator_lag", lagP99 <= lagBoundMs, "open-loop scheduler lag p99 %.3f ms, bound %d ms", lagP99, lagBoundMs)
	res.host = hostFacts(o.seed, clients, sys.client.maxOpen.Load())
	checkHost(res)
	return res, nil
}

// latencyWindow is how many consecutive open-loop requests share one
// latency window, enough for a p90 with ten samples beyond it. The latency
// metrics are the median over windows of each window's percentile, so a
// burst of host stalls moves one window rather than the run's result.
const latencyWindow = 100

// windowed is the median, over consecutive windows of latencyWindow
// values of lat, of each window's q-quantile; a short last window joins
// the one before it.
func windowed(lat []float64, q float64) float64 {
	var per []float64
	for lo := 0; lo < len(lat); {
		hi := lo + latencyWindow
		if len(lat)-hi < latencyWindow {
			hi = len(lat)
		}
		per = append(per, percentile(lat[lo:hi], q))
		lo = hi
	}
	return median(per)
}

func scale(d time.Duration, share float64) time.Duration {
	return time.Duration(float64(d) * share)
}

// setUp starts the system and warms it up; the time it takes is setup_s.
func setUp(ctx context.Context, o options, src *source, clients int, tr *tracer) (*system, []record, error) {
	sys, err := startSystem(o.w, clients, tr, o.wrap)
	if err != nil {
		return nil, nil, err
	}
	warm := sys.warmUp(ctx, src.warmups(), clients)
	for _, r := range warm {
		if r.err != nil {
			sys.close()
			return nil, nil, fmt.Errorf("warm-up request: %w", r.err)
		}
	}
	return sys, warm, nil
}

// checkHost records the connection-budget check.
func checkHost(res *result) {
	h := res.host
	res.check("client_connections", h.MaxOpenConnections <= int64(h.NProc),
		"at most %d client connections open at once, nproc %d", h.MaxOpenConnections, h.NProc)
}

// verify compares every answer bit for bit with kernreg.SelectBandwidth
// on the same sample and grid, and every repeated sample's answer with
// the first answer given for it. recs are the HTTP requests and inproc
// the traced run's in-process layer calls; both fill attempted and
// failed, while the warm-up only has to be right. On coord-mixed it also
// checks the HTTP requests' cache-hit share against the design.
func verify(res *result, warm, recs, inproc []record) error {
	w := res.opts.w
	refs := map[int]answer{}
	all := append(append(append([]record(nil), warm...), recs...), inproc...)
	smps := make([]*sample, len(all))
	for i, r := range all {
		smps[i] = r.smp
	}
	if err := references(w, smps, refs); err != nil {
		return err
	}
	first := map[int]answer{}
	reported := 0
	bad := func(r record) bool {
		reason := ""
		got := answerOf(r.rep.Bandwidth, r.rep.Index)
		if f, seen := first[r.smp.idx]; seen && r.err == nil && f != got {
			reason = fmt.Sprintf("repeat answered h=%v index=%d, first answer h=%v index=%d",
				r.rep.Bandwidth, r.rep.Index, math.Float64frombits(f.hBits), f.index)
		}
		switch ref := refs[r.smp.idx]; {
		case r.err != nil:
			reason = r.err.Error()
		case got != ref:
			reason = fmt.Sprintf("answered h=%v index=%d, reference h=%v index=%d",
				r.rep.Bandwidth, r.rep.Index, math.Float64frombits(ref.hBits), ref.index)
		}
		if reason == "" {
			if _, seen := first[r.smp.idx]; !seen {
				first[r.smp.idx] = got
			}
			return false
		}
		if reported < 5 {
			reported++
			res.check("answer", false, "sample %d: %s", r.smp.idx, reason)
		}
		return true
	}
	warmBad := 0
	for _, r := range warm {
		if bad(r) {
			warmBad++
		}
	}
	for _, r := range inproc {
		if bad(r) {
			res.failed++
		}
	}
	res.attempted = len(recs) + len(inproc)
	hits, repeats, repeatMisses := 0, 0, 0
	for _, r := range recs {
		if bad(r) {
			res.failed++
		}
		if r.rep.CacheHit {
			hits++
		}
		if r.repeat {
			repeats++
			if !r.rep.CacheHit {
				repeatMisses++
			}
		}
	}
	res.check("answers", res.failed == 0 && warmBad == 0,
		"%d of %d answers differ from the reference or failed (warm-up: %d of %d)", res.failed, res.attempted, warmBad, len(warm))
	if w.coord {
		share := ratio(float64(hits), float64(len(recs)))
		res.notes["cache_hit_share"] = share
		res.notes["cache_hit_share_designed"] = 1.0 / repeatEvery
		// Each phase boundary can shift the 1-in-repeatEvery pattern by one
		// request, which matters only in very short runs.
		tol := hitShareTolerance + float64(repeatEvery)/float64(len(recs))
		res.check("cache_hit_share", math.Abs(share-1.0/repeatEvery) <= tol && hits == repeats && repeatMisses == 0,
			"%d of %d requests hit the cache (designed 1 in %d, %d repeats sent); %d repeats missed", hits, len(recs), repeatEvery, repeats, repeatMisses)
	}
	return nil
}
