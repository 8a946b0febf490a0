package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/bandwidth"
	"repro/internal/coord"
	"repro/internal/kernel"
	"repro/internal/serve"
	"repro/internal/sortx"
	"repro/internal/wire"
	"repro/kernreg"
)

// minLayerRequests is the fewest requests the layer phase takes apart,
// however short the run.
const minLayerRequests = 3

// allocSamples is how many fresh samples the layer phase counts
// kernreg's allocations on.
const allocSamples = 5

// runTraced is the traced run: the same system and load as an untraced
// run, plus spans around calls into each layer, from which the per-layer
// metrics are computed. Its phases:
//
//	A  closed loop, untraced — the base of loadgen.trace_overhead
//	B  closed loop, traced — the under-load layer metrics
//	C  open loop, traced — loadgen.lag_p99_ms
//	D  one request at a time: each request over HTTP, then its inputs
//	   through each layer's public functions in process
func runTraced(ctx context.Context, o options) (*result, error) {
	clients := clientCount()
	res := newResult(o)
	src := newSource(o.w, o.seed)
	tr := newTracer()
	sys, warm, err := setUp(ctx, o, src, clients, tr)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	for _, r := range warm {
		src.answered(r.smp, false)
	}
	serve0 := sys.serveCounters()
	coord0 := sys.coordCounters()
	loop := scale(o.seconds, tracedLoopShare)

	runtime.GC()
	rtStart := readRuntime()
	recsA, rpsA := sys.closedLoop(ctx, src, clients, loop, nil)

	runtime.GC()
	rt0 := readRuntime()
	hits0, misses0 := bandwidth.PoolStats()
	stopDepth := sys.sampleQueueDepth(2 * time.Millisecond)
	recsB, rpsB := sys.closedLoop(ctx, src, clients, loop, tr)
	depth := stopDepth()
	hits1, misses1 := bandwidth.PoolStats()
	rt1 := readRuntime()

	runtime.GC()
	recsC, lags := sys.openLoop(ctx, src, clients, o.w.openRPS, loop, tr)

	runtime.GC()
	src.resetRepeats() // the shadow coordinator's cache starts empty
	recsD, inproc, err := sys.layerPhase(ctx, src, tr, scale(o.seconds, layerShare))
	if err != nil {
		return nil, err
	}
	rtEnd := readRuntime()

	// Everything below is outside the timed phases.
	recs := append(append(append(recsA, recsB...), recsC...), recsD...)
	if err := verify(res, warm, recs, inproc); err != nil {
		return nil, err
	}
	m := res.metrics
	serve1 := sys.serveCounters()
	m["serve.shed"] = float64(serve1.shed - serve0.shed)
	m["serve.failures"] = float64(serve1.failures - serve0.failures)
	m["serve.rejected"] = float64(serve1.rejected - serve0.rejected)
	m["serve.queue_depth_mean"] = depth
	m["bandwidth.pool_hit_ratio"] = ratio(float64(hits1-hits0), float64(hits1-hits0+misses1-misses0))
	hits, misses := bandwidth.PoolStats()
	m["bandwidth.pool_balance"] = float64(int64(hits+misses) - int64(bandwidth.PoolReleases()))
	res.check("pool_balance", m["bandwidth.pool_balance"] == 0,
		"workspace acquires minus releases at rest: %v", m["bandwidth.pool_balance"])
	m["runtime.alloc_bytes_per_req"] = ratio(float64(rt1.allocBytes-rt0.allocBytes), float64(len(recsB)))
	// The runtime updates its CPU estimates only when a GC cycle ends,
	// so the share spans every phase to take in several cycles.
	m["runtime.gc_cpu_share"] = ratio(rtEnd.gcCPU-rtStart.gcCPU, rtEnd.totalCPU-rtStart.totalCPU)
	m["runtime.sched_latency_p99_ms"] = schedP99Ms(rt0.sched, rt1.sched)
	lagMs := durationsMs(lags)
	m["loadgen.lag_p99_ms"] = percentile(lagMs, 0.99)
	res.samples["loadgen.lag_p99_ms"] = len(lagMs)
	res.check("generator_lag", m["loadgen.lag_p99_ms"] <= lagBoundMs,
		"open-loop scheduler lag p99 %.3f ms, bound %d ms", m["loadgen.lag_p99_ms"], lagBoundMs)
	m["loadgen.trace_overhead"] = ratio(rpsB, rpsA)
	res.notes["throughput_untraced_rps"] = rpsA
	res.notes["throughput_traced_rps"] = rpsB
	m["error_ratio"] = ratio(float64(res.failed), float64(res.attempted))

	elapsed := make([]float64, 0, len(recsB))
	for _, r := range recsB {
		if r.err == nil {
			elapsed = append(elapsed, r.rep.ElapsedMs)
		}
	}
	ix := indexSpans(tr.snapshot())
	layerMetrics(res, ix)
	if o.w.coord {
		shardMetrics(res, ix, recsB)
		c1 := sys.coordCounters()
		m["coord.cache_hit_ratio"] = ratio(float64(c1.cacheHits-coord0.cacheHits), float64(c1.cacheHits-coord0.cacheHits+c1.cacheMisses-coord0.cacheMisses))
		m["coord.hedges"] = float64(c1.hedges - coord0.hedges)
		m["coord.hedge_late"] = float64(c1.hedgeLate - coord0.hedgeLate)
		m["coord.failovers"] = float64(c1.failovers - coord0.failovers)
		res.notes["coord.cache_hit_ratio_designed"] = 1.0 / repeatEvery
		for _, name := range []string{"serve.decode_ms", "serve.handler_ms", "serve.transport_ms", "serve.elapsed_ms"} {
			res.na[name] = true
		}
	} else {
		m["serve.elapsed_ms"] = median(elapsed)
		res.samples["serve.elapsed_ms"] = len(elapsed)
		for _, d := range perLayer {
			if strings.HasPrefix(d.name, "coord.") || strings.HasPrefix(d.name, "wire.") {
				res.na[d.name] = true
			}
		}
	}
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			m[d.name] = 0
		}
	}
	res.host = hostFacts(o.seed, clients, sys.client.maxOpen.Load())
	checkHost(res)
	res.spanFile = filepath.Join(o.spanDir, fmt.Sprintf("%s-seed%d.jsonl", o.w.name, o.seed))
	if err := tr.write(res.spanFile); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return res, nil
}

// layerPhase sends one request at a time: first over HTTP, then its
// inputs through each layer's public functions in process, every call in
// a span under the request's root span. It returns the HTTP records and
// the in-process calls' records, whose answers are checked as well.
func (sys *system) layerPhase(ctx context.Context, src *source, tr *tracer, d time.Duration) (recs, inproc []record, err error) {
	w := sys.w
	counted := 0
	deadline := time.Now().Add(d)
	for i := 0; i < minLayerRequests || time.Now().Before(deadline); i++ {
		smp, repeat := src.next()
		rctx, root := tr.start(ctx, "layer")

		hctx, sp := tr.start(rctx, "http")
		rep, err := sys.client.post(hctx, smp.body)
		recs = append(recs, record{smp: smp, repeat: repeat, rep: rep, err: err, latency: sp.end().dur()})
		if err == nil {
			src.answered(smp, repeat)
		}

		if w.coord {
			inproc = append(inproc, sys.coordLayers(rctx, tr, smp, repeat))
		} else {
			inproc = append(inproc, sys.serveLayers(rctx, tr, smp))
		}
		if !repeat {
			calls, err := computeLayers(rctx, tr, w, smp, counted < allocSamples)
			counted++
			if err != nil {
				return nil, nil, err
			}
			inproc = append(inproc, calls...)
		}
		root.end()
	}
	return recs, inproc, nil
}

// serveLayers decodes the request body as kernregd does and calls the
// kernregd handler in process.
func (sys *system) serveLayers(ctx context.Context, tr *tracer, smp *sample) record {
	_, sp := tr.start(ctx, "serve.decode")
	var req serve.SelectRequest
	dec := json.NewDecoder(bytes.NewReader(smp.body))
	dec.DisallowUnknownFields()
	derr := dec.Decode(&req)
	sp.end()

	rec := httptest.NewRecorder()
	hreq := httptest.NewRequest(http.MethodPost, "/v1/select", bytes.NewReader(smp.body)).WithContext(ctx)
	_, sp = tr.start(ctx, "serve.handler")
	sys.handler.ServeHTTP(rec, hreq)
	lat := sp.end().dur()
	rep, err := readReply(rec.Code, rec.Body)
	if err == nil && derr != nil {
		err = fmt.Errorf("decoding the request body: %w", derr)
	}
	return record{smp: smp, rep: rep, err: err, latency: lat}
}

// coordLayers runs the coordinator's wire encoding and Coordinator.Select
// in process, on the shadow coordinator, whose replica round trips land
// under the coord.select span.
func (sys *system) coordLayers(ctx context.Context, tr *tracer, smp *sample, repeat bool) record {
	_, sp := tr.start(ctx, "wire.encode")
	xb, yb := wire.EncodeFloat64s(smp.x), wire.EncodeFloat64s(smp.y)
	sp.end()
	_, sp = tr.start(ctx, "wire.decode")
	_, xerr := wire.DecodeFloat64s(xb)
	_, yerr := wire.DecodeFloat64s(yb)
	sp.end()

	g, err := bandwidth.DefaultGrid(smp.x, sys.w.k)
	if err != nil {
		return record{smp: smp, err: err}
	}
	cctx, sp := tr.start(ctx, "coord.select")
	res, err := sys.shadow.Select(cctx, coord.Job{X: smp.x, Y: smp.y, Grid: g, Method: "twopointer"})
	lat := sp.end().dur()
	switch {
	case err != nil:
	case xerr != nil || yerr != nil:
		err = fmt.Errorf("wire round trip: %v, %v", xerr, yerr)
	case repeat != res.CacheHit:
		err = fmt.Errorf("in-process select: cache hit %v on a request designed as repeat=%v", res.CacheHit, repeat)
	}
	return record{smp: smp, repeat: repeat, rep: reply{Bandwidth: res.H, Index: res.Index, CacheHit: res.CacheHit}, err: err, latency: lat}
}

// computeLayers calls the selection stack one layer at a time: kernreg's
// entry point, then the grid, the two-pointer search and the global
// co-sort it starts with. With countAllocs it first counts one kernreg
// call's heap allocations.
func computeLayers(ctx context.Context, tr *tracer, w workload, smp *sample, countAllocs bool) ([]record, error) {
	if countAllocs {
		// An untimed extra call between two ReadMemStats, which flush
		// every P's allocation cache so small allocations count too.
		_, sp := tr.start(ctx, "kernreg.allocs")
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := kernreg.SelectBandwidthContext(ctx, smp.x, smp.y, selectOptions(w)...)
		runtime.ReadMemStats(&after)
		sp.s.Allocs, sp.s.Bytes = int64(after.Mallocs-before.Mallocs), int64(after.TotalAlloc-before.TotalAlloc)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("kernreg.SelectBandwidthContext: %w", err)
		}
	}
	_, sp := tr.start(ctx, "kernreg.select")
	sel, err := kernreg.SelectBandwidthContext(ctx, smp.x, smp.y, selectOptions(w)...)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("kernreg.SelectBandwidthContext: %w", err)
	}

	_, sp = tr.start(ctx, "bandwidth.grid")
	g, err := bandwidth.DefaultGrid(smp.x, w.k)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("bandwidth.DefaultGrid: %w", err)
	}
	_, sp = tr.start(ctx, "bandwidth.search")
	r, err := bandwidth.TwoPointerGridSearchKernelStabilityContext(ctx, smp.x, smp.y, g, kernel.Epanechnikov, bandwidth.Compensated)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("bandwidth.TwoPointerGridSearchKernelStabilityContext: %w", err)
	}

	xs := append([]float64(nil), smp.x...)
	ys := append([]float64(nil), smp.y...)
	_, sp = tr.start(ctx, "sortx.cosort")
	sortx.QuickSort64(xs, ys)
	sp.end()
	return []record{
		{smp: smp, rep: reply{Bandwidth: sel.Bandwidth, Index: sel.Index}},
		{smp: smp, rep: reply{Bandwidth: r.H, Index: r.Index}},
	}, nil
}

// layerMetrics computes the layer phase's metrics from its traces: the
// median over requests of each span's duration, or of a difference of
// two spans of the same request.
func layerMetrics(res *result, ix *traceIndex) {
	vals := map[string][]float64{}
	add := func(name string, v float64) { vals[name] = append(vals[name], v) }
	// shares are the notes that check the design: the search should be
	// most of an unloaded select-large request, and serve plus transport
	// (the request minus kernreg's own selection) a larger share of
	// select-small than of select-large.
	shares := map[string][]float64{}
	n := float64(res.opts.w.n)
	for _, root := range ix.rootsNamed("layer") {
		get := func(name string) (time.Duration, bool) {
			s, ok := ix.child(root, name)
			return s.dur(), ok
		}
		httpD, _ := get("http")
		shares["layer.http_ms"] = append(shares["layer.http_ms"], ms(httpD))
		if s, ok := get("bandwidth.search"); ok && httpD > 0 {
			shares["layer.search_share"] = append(shares["layer.search_share"], float64(s)/float64(httpD))
		}
		if k, ok := get("kernreg.select"); ok && httpD > 0 && !res.opts.w.coord {
			shares["layer.serve_transport_share"] = append(shares["layer.serve_transport_share"], float64(httpD-k)/float64(httpD))
		}
		for _, name := range []string{"serve.decode", "wire.encode", "wire.decode", "bandwidth.grid", "sortx.cosort"} {
			if d, ok := get(name); ok {
				add(name+"_ms", ms(d))
			}
		}
		if h, ok := get("serve.handler"); ok {
			add("serve.handler_ms", ms(h))
			add("serve.transport_ms", ms(httpD-h))
		}
		if d, ok := get("kernreg.select"); ok {
			add("kernreg.select_ms", ms(d))
		}
		if s, ok := ix.child(root, "kernreg.allocs"); ok {
			add("kernreg.allocs_per_op", float64(s.Allocs))
			add("kernreg.bytes_per_op", float64(s.Bytes))
		}
		if s, ok := get("bandwidth.search"); ok {
			add("bandwidth.search_ms", ms(s))
			add("bandwidth.ns_per_pair", float64(s)/(n*(n-1)))
			if c, ok := get("sortx.cosort"); ok {
				add("bandwidth.sweep_ms", ms(s-c))
			}
		}
		if s, ok := ix.child(root, "coord.select"); ok {
			add("coord.select_ms", ms(s.dur()))
			add("coord.front_ms", ms(httpD-s.dur()))
			add("coord.self_ms", ms(ix.selfTime(s)))
		}
	}
	for name, vs := range vals {
		res.metrics[name] = median(vs)
		res.samples[name] = len(vs)
	}
	for name, vs := range shares {
		res.notes[name] = median(vs)
	}
}

// shardMetrics computes the replica round-trip metrics from the traced
// closed loop (phase B), whose requests are the traces rooted at
// "closed".
func shardMetrics(res *result, ix *traceIndex, recsB []record) {
	var rtt, replica, dispatch, probe []float64
	var attempts, bytesSent int64
	jobs := ix.rootsNamed("closed")
	for _, root := range jobs {
		for _, s := range ix.descendants(root) {
			switch s.Name {
			case "coord.shard":
				attempts++
				bytesSent += s.Bytes
				if s.Err == "" {
					rtt = append(rtt, ms(s.dur()))
					replica = append(replica, s.ReplicaMs)
					dispatch = append(dispatch, ms(s.dur())-s.ReplicaMs)
				}
			case "coord.probe":
				probe = append(probe, ms(s.dur()))
			}
		}
	}
	// A cache hit replays the stored result, whose shard count is the
	// original job's, so only misses count.
	shards, dispatched := 0, 0
	for _, r := range recsB {
		if r.err == nil && !r.rep.CacheHit {
			shards += r.rep.Shards
			dispatched++
		}
	}
	m := res.metrics
	m["coord.shard_rtt_ms"], res.samples["coord.shard_rtt_ms"] = median(rtt), len(rtt)
	m["coord.replica_elapsed_ms"], res.samples["coord.replica_elapsed_ms"] = median(replica), len(replica)
	m["coord.dispatch_ms"], res.samples["coord.dispatch_ms"] = median(dispatch), len(dispatch)
	m["coord.probe_ms"], res.samples["coord.probe_ms"] = median(probe), len(probe)
	m["coord.shard_bytes_per_job"] = ratio(float64(bytesSent), float64(dispatched))
	m["coord.probes_per_job"] = ratio(float64(len(probe)), float64(len(jobs)))
	m["coord.attempts_per_shard"] = ratio(float64(attempts), float64(shards))
}

// serveCounts are the kernregd error counters, summed over daemons.
type serveCounts struct{ shed, failures, rejected int64 }

func (sys *system) serveCounters() serveCounts {
	var c serveCounts
	for _, d := range sys.daemons {
		m := d.Metrics()
		c.shed += m.Shed.Value()
		c.failures += m.Failures.Value()
		c.rejected += m.Rejected.Value()
	}
	return c
}

// coordCounts are the kerncoord /metrics counters the breakdown reads.
type coordCounts struct {
	cacheHits, cacheMisses, hedges, hedgeLate, failovers int64
}

// coordCounters renders the front coordinator's /metrics document in
// process and reads it; zero for kernregd workloads.
func (sys *system) coordCounters() coordCounts {
	if sys.coord == nil {
		return coordCounts{}
	}
	var buf bytes.Buffer
	if err := sys.coord.Metrics().WriteJSON(&buf); err != nil {
		return coordCounts{}
	}
	var doc struct {
		Cache struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"cache"`
		Hedge struct {
			Launched int64 `json:"launched"`
			Late     int64 `json:"late_discarded"`
		} `json:"hedge"`
		Failovers int64 `json:"failovers"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return coordCounts{}
	}
	return coordCounts{doc.Cache.Hits, doc.Cache.Misses, doc.Hedge.Launched, doc.Hedge.Late, doc.Failovers}
}

// sampleQueueDepth samples the daemons' admission-queue depth every
// interval until the returned stop function is called; stop returns the
// mean depth per daemon.
func (sys *system) sampleQueueDepth(every time.Duration) (stop func() float64) {
	done := make(chan struct{})
	var (
		wg       sync.WaitGroup
		sum, cnt float64
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				for _, d := range sys.daemons {
					sum += float64(d.Metrics().QueueDepth())
					cnt++
				}
			}
		}
	}()
	return func() float64 {
		close(done)
		wg.Wait()
		return ratio(sum, cnt)
	}
}
