package serve

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/kernel"
	"repro/internal/wire"
	"repro/kernreg"
)

// Serve-layer battery for the shard protocol (/v1/shard, /v1/load) and
// the bagged aggregation surface added alongside it.

func TestShardBitRoundTrip(t *testing.T) {
	srv := New(Config{Workers: 2, WorkerLabel: "w-test"})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(context.Background())

	x, y := testdata(200, 31)
	g, err := bandwidth.DefaultGrid(x, 24)
	if err != nil {
		t.Fatal(err)
	}
	// Shard = the middle third of the grid, offset preserved.
	lo, hi := 8, 16
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/shard", ShardRequest{
		XB64:       wire.EncodeFloat64s(x),
		YB64:       wire.EncodeFloat64s(y),
		GridB64:    wire.EncodeFloat64s(g.H[lo:hi]),
		Method:     "twopointer",
		KeepScores: true,
		Offset:     lo,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr ShardResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	want, err := bandwidth.TwoPointerGridSearchKernelStabilityContext(context.Background(), x, y, bandwidth.Grid{H: g.H[lo:hi]}, kernel.Epanechnikov, bandwidth.Compensated)
	if err != nil {
		t.Fatal(err)
	}
	h, err := wire.ParseBits(sr.HBits)
	if err != nil {
		t.Fatal(err)
	}
	cv, err := wire.ParseBits(sr.CVBits)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(h) != math.Float64bits(want.H) || math.Float64bits(cv) != math.Float64bits(want.CV) {
		t.Errorf("shard bits differ from direct sweep: h %016x vs %016x, cv %016x vs %016x",
			math.Float64bits(h), math.Float64bits(want.H), math.Float64bits(cv), math.Float64bits(want.CV))
	}
	if sr.Index != want.Index || sr.Offset != lo {
		t.Errorf("index/offset %d/%d, want %d/%d", sr.Index, sr.Offset, want.Index, lo)
	}
	if sr.Worker != "w-test" {
		t.Errorf("worker label %q, want \"w-test\"", sr.Worker)
	}
	scores, err := wire.DecodeFloat64s(sr.ScoresB64)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != hi-lo {
		t.Fatalf("%d scores, want %d", len(scores), hi-lo)
	}
	for i := range scores {
		if math.Float64bits(scores[i]) != math.Float64bits(want.Scores[i]) {
			t.Errorf("scores[%d] bits differ", i)
		}
	}
}

// TestShardNonFiniteCV: alternating ±1e308 responses overflow the
// squared LOOCV residuals, so every candidate scores NaN —
// unrepresentable in plain JSON — and the value must survive the hex
// bit encoding exactly.
func TestShardNonFiniteCV(t *testing.T) {
	srv := New(Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(context.Background())

	x := []float64{0, 1, 2, 3}
	y := []float64{1e308, -1e308, 1e308, -1e308}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/shard", ShardRequest{
		XB64:    wire.EncodeFloat64s(x),
		YB64:    wire.EncodeFloat64s(y),
		GridB64: wire.EncodeFloat64s([]float64{2, 3}),
		Method:  "sorted",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr ShardResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	cv, err := wire.ParseBits(sr.CVBits)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(cv) {
		t.Errorf("overflowed shard CV = %v, want NaN", cv)
	}
	if sr.Index != 0 {
		t.Errorf("all-NaN shard should fall back to index 0, got %d", sr.Index)
	}
}

// TestShardRejects locks the 4xx contract of the shard decoder.
func TestShardRejects(t *testing.T) {
	x, y := testdata(50, 32)
	xb, yb := wire.EncodeFloat64s(x), wire.EncodeFloat64s(y)
	gb := wire.EncodeFloat64s([]float64{0.1, 0.2, 0.3})
	cfg := Config{}.withDefaults()
	cases := []struct {
		name string
		req  ShardRequest
		frag string
	}{
		{"bad base64", ShardRequest{XB64: "!!!", YB64: yb, GridB64: gb}, "x_b64"},
		{"truncated floats", ShardRequest{XB64: "AAAA", YB64: yb, GridB64: gb}, "x_b64"},
		{"unsorted grid", ShardRequest{XB64: xb, YB64: yb, GridB64: wire.EncodeFloat64s([]float64{0.3, 0.1})}, "grid"},
		{"negative bandwidth", ShardRequest{XB64: xb, YB64: yb, GridB64: wire.EncodeFloat64s([]float64{-1, 1})}, "grid"},
		{"negative offset", ShardRequest{XB64: xb, YB64: yb, GridB64: gb, Offset: -1}, "offset"},
		{"unknown kernel", ShardRequest{XB64: xb, YB64: yb, GridB64: gb, Kernel: "mystery"}, "kernel"},
		{"unshardable method", ShardRequest{XB64: xb, YB64: yb, GridB64: gb, Method: "bagged"}, "not shardable"},
		{"length mismatch", ShardRequest{XB64: xb, YB64: wire.EncodeFloat64s(y[:10]), GridB64: gb}, "observations"},
	}
	for _, tc := range cases {
		b, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		_, herr := decodeShardRequest(strings.NewReader(string(b)), cfg)
		if herr == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if herr.status < 400 || herr.status >= 500 {
			t.Errorf("%s: status %d, want 4xx", tc.name, herr.status)
		}
		if !strings.Contains(herr.msg, tc.frag) {
			t.Errorf("%s: message %q does not mention %q", tc.name, herr.msg, tc.frag)
		}
	}
}

// TestShardRejectsUnsupportedKernel: a (method, kernel) pair the method
// table does not list is a 400 from the decoder, counted as rejected,
// and never takes a pool slot or reaches a selector (no failures).
func TestShardRejectsUnsupportedKernel(t *testing.T) {
	srv := New(Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(context.Background())

	x, y := testdata(50, 34)
	xb, yb := wire.EncodeFloat64s(x), wire.EncodeFloat64s(y)
	gb := wire.EncodeFloat64s([]float64{0.1, 0.2, 0.3})
	pairs := []struct{ method, kernel string }{
		{"sorted", "gaussian"},
		{"", "biweight"},
		{"sorted-parallel", "uniform"},
		{"twopointer", "gaussian"},
		{"twopointer-parallel", "triangular"},
	}
	for _, p := range pairs {
		req := ShardRequest{XB64: xb, YB64: yb, GridB64: gb, Method: p.method, Kernel: p.kernel}
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		_, herr := decodeShardRequest(strings.NewReader(string(b)), Config{}.withDefaults())
		if herr == nil || herr.status != http.StatusBadRequest {
			t.Fatalf("%s/%s: decoder returned %v, want a 400", p.method, p.kernel, herr)
		}
		if !strings.Contains(herr.msg, "kernel") || strings.Contains(herr.msg, "sorted grid search") {
			t.Errorf("%s/%s: message %q should name the kernel, not an engine", p.method, p.kernel, herr.msg)
		}
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/shard", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s/%s: status %d: %s", p.method, p.kernel, resp.StatusCode, body)
		}
	}
	m := srv.Metrics()
	if got := m.Rejected.Value(); got != int64(len(pairs)) {
		t.Errorf("rejected = %d, want %d", got, len(pairs))
	}
	if got := m.Failures.Value(); got != 0 {
		t.Errorf("failures = %d, want 0: an unsupported pair reached a selector", got)
	}
}

func TestLoadEndpoint(t *testing.T) {
	srv := New(Config{Workers: 3, WorkerLabel: "probe-me"})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(context.Background())

	resp, err := ts.Client().Get(ts.URL + "/v1/load")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lr LoadResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	if lr.QueueDepth != 0 || lr.Workers != 3 || lr.Draining || lr.Worker != "probe-me" {
		t.Errorf("idle load response %+v", lr)
	}
}

// TestSelectBaggedAggregationField: the "aggregation" JSON field routes
// to the median estimator, the response carries bag_cv_variance, and
// both reject cleanly when misused.
func TestSelectBaggedAggregationField(t *testing.T) {
	srv := New(Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(context.Background())

	x, y := testdata(600, 33)
	bags, bagSize, seed := 8, 150, int64(42)
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/select", SelectRequest{
		X: x, Y: y, Method: "bagged", GridSize: 32,
		Bags: &bags, BagSize: &bagSize, Seed: &seed, Aggregation: "median",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got SelectResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	want, err := kernreg.SelectBandwidth(x, y,
		kernreg.WithMethod(kernreg.MethodBagged), kernreg.GridSize(32),
		kernreg.Bags(bags), kernreg.BagSize(bagSize), kernreg.Seed(seed),
		kernreg.Aggregation("median"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Bandwidth != want.Bandwidth {
		t.Fatalf("served median h=%g differs from direct call h=%g", got.Bandwidth, want.Bandwidth)
	}
	if got.BagCVVariance == nil {
		t.Fatal("bagged response omitted bag_cv_variance")
	}
	if *got.BagCVVariance != want.BagCVVariance {
		t.Errorf("bag_cv_variance %v, want %v", *got.BagCVVariance, want.BagCVVariance)
	}

	// Misuse: aggregation without the bagged method, unknown value.
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/select", SelectRequest{X: x, Y: y, Aggregation: "median"})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "bagged") {
		t.Errorf("aggregation without bagged: %d %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/select", SelectRequest{
		X: x, Y: y, Method: "bagged", Aggregation: "mode",
	})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "aggregation") {
		t.Errorf("unknown aggregation: %d %s", resp.StatusCode, body)
	}
}
