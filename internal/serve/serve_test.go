package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/kernreg"
)

// testdata generates a deterministic sample shaped like the paper's
// simulation (sinusoid plus deterministic pseudo-noise), parameterised
// by a seed so concurrent clients can hold distinct datasets.
func testdata(n int, seed int64) (x, y []float64) {
	x = make([]float64, n)
	y = make([]float64, n)
	for i := 0; i < n; i++ {
		t := float64(i) / float64(n)
		// A cheap deterministic scramble; no math/rand so the data is
		// reproducible from (n, seed) alone.
		noise := math.Sin(float64(seed)*12.9898 + float64(i)*78.233)
		x[i] = 10 * t
		y[i] = math.Sin(x[i]) + 0.3*noise
	}
	return x, y
}

func postJSON(t *testing.T, client *http.Client, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return postRaw(t, client, url, b)
}

func postRaw(t *testing.T, client *http.Client, url string, b []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestSelectEndpointMatchesDirectCall(t *testing.T) {
	srv := New(Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(context.Background())

	x, y := testdata(128, 1)
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/select", SelectRequest{X: x, Y: y, GridSize: 32})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got SelectResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("bad response body %q: %v", body, err)
	}
	want, err := kernreg.SelectBandwidth(x, y, kernreg.GridSize(32))
	if err != nil {
		t.Fatal(err)
	}
	if got.Bandwidth != want.Bandwidth || got.Index != want.Index {
		t.Fatalf("served selection (h=%g, idx=%d) differs from direct call (h=%g, idx=%d)",
			got.Bandwidth, got.Index, want.Bandwidth, want.Index)
	}
	if got.CV == nil || *got.CV != want.CV {
		t.Fatalf("served CV %v differs from direct %g", got.CV, want.CV)
	}
	if got.Method != "sorted" || got.N != 128 {
		t.Fatalf("unexpected metadata: %+v", got)
	}
}

func TestFitPredictEndpoint(t *testing.T) {
	srv := New(Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(context.Background())

	x, y := testdata(100, 7)
	points := []float64{0.5, 5, 9.5, 1e6} // 1e6 is far outside the data: null prediction
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/fit-predict",
		FitPredictRequest{X: x, Y: y, Bandwidth: 1.5, Points: points})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got FitPredictResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Bandwidth != 1.5 || len(got.Predictions) != len(points) {
		t.Fatalf("unexpected response: %+v", got)
	}
	reg, err := kernreg.Fit(x, y, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range points[:3] {
		want, ok := reg.Predict(p)
		if !ok {
			t.Fatalf("direct predict at %g unexpectedly undefined", p)
		}
		if got.Predictions[i] == nil || *got.Predictions[i] != want {
			t.Fatalf("prediction[%d] = %v, want %g", i, got.Predictions[i], want)
		}
	}
	if got.Predictions[3] != nil {
		t.Fatalf("prediction far outside the data should be null, got %v", *got.Predictions[3])
	}
}

func TestCheckSampleErrorMessages(t *testing.T) {
	// Locks the field name, index, and status of every checkSample
	// rejection — in particular that the y-loop reports "y", not "x",
	// and the offending index within y.
	cfg := Config{MaxN: 8}
	nan := math.NaN()
	inf := math.Inf(1)
	big := make([]float64, 9)
	cases := []struct {
		name       string
		x, y       []float64
		wantStatus int
		wantMsg    string
	}{
		{"length mismatch", []float64{1, 2, 3}, []float64{1, 2}, http.StatusBadRequest, "x has 3 observations, y has 2"},
		{"too few", []float64{1}, []float64{1}, http.StatusBadRequest, "need at least 2 observations, have 1"},
		{"over limit", big, big, http.StatusRequestEntityTooLarge, "n=9 exceeds the limit of 8 observations"},
		{"nan in x", []float64{1, nan}, []float64{1, 2}, http.StatusBadRequest, "x[1] is not finite"},
		{"inf in x", []float64{inf, 2}, []float64{1, 2}, http.StatusBadRequest, "x[0] is not finite"},
		{"nan in y", []float64{1, 2}, []float64{1, nan}, http.StatusBadRequest, "y[1] is not finite"},
		{"neg inf in y", []float64{1, 2, 3}, []float64{1, 2, -inf}, http.StatusBadRequest, "y[2] is not finite"},
		{"bad x reported before bad y", []float64{nan, 2}, []float64{1, nan}, http.StatusBadRequest, "x[0] is not finite"},
		{"valid", []float64{1, 2, 3}, []float64{4, 5, 6}, 0, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			herr := checkSample(tc.x, tc.y, cfg)
			if tc.wantStatus == 0 {
				if herr != nil {
					t.Fatalf("checkSample = %q, want nil", herr.msg)
				}
				return
			}
			if herr == nil {
				t.Fatalf("checkSample = nil, want status %d %q", tc.wantStatus, tc.wantMsg)
			}
			if herr.status != tc.wantStatus {
				t.Errorf("status = %d, want %d", herr.status, tc.wantStatus)
			}
			if herr.msg != tc.wantMsg {
				t.Errorf("msg = %q, want %q", herr.msg, tc.wantMsg)
			}
		})
	}
}

func TestSelectStableFlag(t *testing.T) {
	srv := New(Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(context.Background())

	x, y := testdata(200, 3)
	// sorted-f32 is the single-precision path where the flag changes the
	// arithmetic; both settings must round-trip to the direct call.
	for _, stable := range []bool{true, false} {
		req := SelectRequest{X: x, Y: y, Method: "sorted-f32", GridSize: 32, Stable: &stable}
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/select", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stable=%v: status %d: %s", stable, resp.StatusCode, body)
		}
		var got SelectResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		want, err := kernreg.SelectBandwidth(x, y,
			kernreg.WithMethod(kernreg.MethodSortedF32), kernreg.GridSize(32), kernreg.Stable(stable))
		if err != nil {
			t.Fatal(err)
		}
		if got.Bandwidth != want.Bandwidth || got.Index != want.Index || got.CV == nil || *got.CV != want.CV {
			t.Errorf("stable=%v: served (h=%g idx=%d cv=%v) differs from direct (h=%g idx=%d cv=%g)",
				stable, got.Bandwidth, got.Index, got.CV, want.Bandwidth, want.Index, want.CV)
		}
	}
	// Omitting the flag must match the default (compensated) path.
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/select", SelectRequest{X: x, Y: y, Method: "sorted-f32", GridSize: 32})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got SelectResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	want, err := kernreg.SelectBandwidth(x, y, kernreg.WithMethod(kernreg.MethodSortedF32), kernreg.GridSize(32))
	if err != nil {
		t.Fatal(err)
	}
	if got.Bandwidth != want.Bandwidth || got.CV == nil || *got.CV != want.CV {
		t.Errorf("default stable: served (h=%g cv=%v) differs from direct (h=%g cv=%g)",
			got.Bandwidth, got.CV, want.Bandwidth, want.CV)
	}
}

func TestMalformedBodiesAre4xx(t *testing.T) {
	srv := New(Config{Workers: 1, MaxN: 100, MaxGrid: 64})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(context.Background())

	cases := []struct {
		name string
		body string
		want int
	}{
		{"empty", ``, http.StatusBadRequest},
		{"not-json", `hello`, http.StatusBadRequest},
		{"wrong-type", `{"x": "abc"}`, http.StatusBadRequest},
		{"nan-literal", `{"x":[NaN,1],"y":[1,2]}`, http.StatusBadRequest},
		{"unknown-field", `{"x":[1,2],"y":[1,2],"bogus":1}`, http.StatusBadRequest},
		{"trailing-garbage", `{"x":[1,2],"y":[1,2]}{}`, http.StatusBadRequest},
		{"length-mismatch", `{"x":[1,2,3],"y":[1,2]}`, http.StatusBadRequest},
		{"too-few", `{"x":[1],"y":[1]}`, http.StatusBadRequest},
		{"unknown-method", `{"x":[1,2],"y":[1,2],"method":"magic"}`, http.StatusBadRequest},
		{"unknown-kernel", `{"x":[1,2],"y":[1,2],"kernel":"box?"}`, http.StatusBadRequest},
		{"negative-grid", `{"x":[1,2],"y":[1,2],"grid_size":-5}`, http.StatusBadRequest},
		{"huge-grid", `{"x":[1,2],"y":[1,2],"grid_size":65536}`, http.StatusRequestEntityTooLarge},
		{"bad-grid-range", `{"x":[1,2],"y":[1,2],"grid_min":3,"grid_max":1}`, http.StatusBadRequest},
		{"constant-x", `{"x":[2,2,2],"y":[1,2,3]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := ts.Client().Post(ts.URL+"/v1/select", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}
	// Two cases ("unknown-kernel", "constant-x") pass the structural
	// decoder and are rejected by the selector itself, so they count as
	// Failures rather than Rejected.
	if srv.Metrics().Rejected.Value() < int64(len(cases)-2) {
		t.Fatalf("rejected counter %d, want at least %d", srv.Metrics().Rejected.Value(), len(cases)-2)
	}
	if srv.Metrics().Failures.Value() != 2 {
		t.Fatalf("failures counter %d, want 2", srv.Metrics().Failures.Value())
	}

	// Over-MaxN sample: built programmatically to keep the table small.
	x, y := testdata(101, 2)
	resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/select", SelectRequest{X: x, Y: y})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-limit n: status %d, want 413", resp.StatusCode)
	}
}

// TestConcurrentClientsNoLostOrCrossedResponses is the battery's core:
// many concurrent clients with distinct datasets must each get exactly
// one response, and each response must match the selection computed
// directly for that client's dataset — a crossed or duplicated response
// cannot match, because every dataset has a different optimum.
func TestConcurrentClientsNoLostOrCrossedResponses(t *testing.T) {
	srv := New(Config{Workers: 4, QueueDepth: 64})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(context.Background())

	const clients = 32
	type outcome struct {
		status int
		got    SelectResponse
		want   kernreg.Selection
	}
	outcomes := make([]outcome, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			x, y := testdata(64+c, int64(c))
			want, err := kernreg.SelectBandwidth(x, y, kernreg.GridSize(24))
			if err != nil {
				t.Error(err)
				return
			}
			resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/select", SelectRequest{X: x, Y: y, GridSize: 24})
			o := outcome{status: resp.StatusCode, want: want}
			if err := json.Unmarshal(body, &o.got); err != nil && resp.StatusCode == http.StatusOK {
				t.Errorf("client %d: bad body %q: %v", c, body, err)
			}
			outcomes[c] = o
		}(c)
	}
	wg.Wait()

	for c, o := range outcomes {
		if o.status != http.StatusOK {
			t.Fatalf("client %d: status %d (lost response)", c, o.status)
		}
		if o.got.Bandwidth != o.want.Bandwidth || o.got.Index != o.want.Index {
			t.Fatalf("client %d: got (h=%g, idx=%d), want (h=%g, idx=%d) — responses crossed",
				c, o.got.Bandwidth, o.got.Index, o.want.Bandwidth, o.want.Index)
		}
		if o.got.N != 64+c {
			t.Fatalf("client %d: response n=%d, want %d", c, o.got.N, 64+c)
		}
	}
	if got := srv.Metrics().Requests.Value(); got != clients {
		t.Fatalf("requests counter %d, want %d", got, clients)
	}
	if got := srv.Metrics().Latency["select"].Count(); got != clients {
		t.Fatalf("latency histogram count %d, want %d", got, clients)
	}
}

// gate occupies pool slots with jobs that block until released, letting
// the tests force a full queue deterministically.
type gate struct {
	release chan struct{}
	done    sync.WaitGroup
}

func blockPool(s *Server, slots int) *gate {
	g := &gate{release: make(chan struct{})}
	for i := 0; i < slots; i++ {
		g.done.Add(1)
		go func() {
			defer g.done.Done()
			s.submit(context.Background(), func(context.Context) { <-g.release })
		}()
	}
	return g
}

// waitOccupied spins until the pool has absorbed `want` blocked jobs
// (running + queued).
func waitOccupied(t *testing.T, s *Server, wantQueued int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.Metrics().QueueDepth() >= wantQueued {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("queue depth %d never reached %d", s.Metrics().QueueDepth(), wantQueued)
}

func TestSheddingWhenQueueFull(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// One job occupies the single worker, one fills the queue.
	g := blockPool(srv, 2)
	waitOccupied(t, srv, 1)

	x, y := testdata(16, 3)
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/select", SelectRequest{X: x, Y: y})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if got := srv.Metrics().Shed.Value(); got != 1 {
		t.Fatalf("shed counter %d, want 1", got)
	}

	// Releasing the gate makes the pool serviceable again.
	close(g.release)
	g.done.Wait()
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/select", SelectRequest{X: x, Y: y})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: status %d, want 200: %s", resp.StatusCode, body)
	}
	srv.Drain(context.Background())
}

func TestGracefulDrainCompletesInFlightWork(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Occupy the worker and queue one more job behind it.
	g := blockPool(srv, 2)
	waitOccupied(t, srv, 1)

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(context.Background()) }()

	// Drain must be observable before it completes: new requests are
	// refused with 503 while the gated jobs are still in the pool.
	deadline := time.Now().Add(5 * time.Second)
	for !srv.Draining() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	x, y := testdata(16, 4)
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/select", SelectRequest{X: x, Y: y})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("during drain: status %d, want 503: %s", resp.StatusCode, body)
	}
	hresp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: status %d, want 503", hresp.StatusCode)
	}

	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) while jobs were still gated", err)
	default:
	}

	// Both gated jobs (in-flight and queued) must complete, then Drain
	// returns cleanly.
	close(g.release)
	g.done.Wait()
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("Drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Drain did not return after jobs were released")
	}

	// A second Drain is a no-op, not a close-of-closed-channel panic.
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("second Drain: %v", err)
	}
}

func TestDrainDeadlineExpires(t *testing.T) {
	srv := New(Config{Workers: 1})
	g := blockPool(srv, 1)
	// Give the worker a moment to pick the job up.
	time.Sleep(10 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Drain with stuck worker: %v, want DeadlineExceeded", err)
	}
	close(g.release)
	g.done.Wait()
}

// TestAbandonedClientFreesWorker verifies the tentpole's cancellation
// path end to end: a client that disconnects mid-selection must not pin
// the worker for the full computation.
func TestAbandonedClientFreesWorker(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(context.Background())

	// A deliberately slow request: the naive search at this size takes
	// seconds on one worker.
	x, y := testdata(4000, 5)
	b, err := json.Marshal(SelectRequest{X: x, Y: y, Method: "naive", GridSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/select", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if resp != nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		errc <- err
	}()
	// Let the selection start, then drop the client.
	time.Sleep(100 * time.Millisecond)
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("cancelled request unexpectedly succeeded")
	}

	// The worker must be free again promptly: a small request completes
	// well before the abandoned one could have finished.
	quickX, quickY := testdata(64, 6)
	start := time.Now()
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/select", SelectRequest{X: quickX, Y: quickY})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up request: status %d: %s", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("follow-up request took %v; the abandoned selection kept the worker", elapsed)
	}
}

func TestComputeDeadlineMapsTo504(t *testing.T) {
	srv := New(Config{Workers: 1, Timeout: 30 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(context.Background())

	x, y := testdata(4000, 8)
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/select", SelectRequest{X: x, Y: y, Method: "naive", GridSize: 256})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
	if srv.Metrics().Failures.Value() != 1 {
		t.Fatalf("failures counter %d, want 1", srv.Metrics().Failures.Value())
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(context.Background())

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}

	x, y := testdata(64, 9)
	postJSON(t, ts.Client(), ts.URL+"/v1/select", SelectRequest{X: x, Y: y})

	resp, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d %s", resp.StatusCode, body)
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("metrics is not JSON: %v\n%s", err, body)
	}
	if m["requests"].(float64) < 1 {
		t.Fatalf("metrics requests = %v, want >= 1", m["requests"])
	}
	if _, ok := m["latency"].(map[string]any)["select"]; !ok {
		t.Fatalf("metrics missing select latency histogram: %s", body)
	}
	gc, ok := m["gc"].(map[string]any)
	if !ok {
		t.Fatalf("metrics missing gc block: %s", body)
	}
	for _, key := range []string{"num_gc", "pause_total_ns", "heap_alloc", "total_alloc"} {
		if _, ok := gc[key]; !ok {
			t.Fatalf("metrics gc block missing %q: %s", key, body)
		}
	}
	pool, ok := m["workspace_pool"].(map[string]any)
	if !ok {
		t.Fatalf("metrics missing workspace_pool block: %s", body)
	}
	for _, key := range []string{"hits", "misses", "releases"} {
		if _, ok := pool[key]; !ok {
			t.Fatalf("metrics workspace_pool block missing %q: %s", key, body)
		}
	}
}

// TestSelectTwoPointerMethods drives the two-pointer selector family
// end-to-end through the JSON API and checks each agrees with the
// default sorted selection on the same request.
func TestSelectTwoPointerMethods(t *testing.T) {
	srv := New(Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(context.Background())

	x, y := testdata(200, 3)
	base, err := kernreg.SelectBandwidth(x, y, kernreg.GridSize(32))
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []string{"twopointer", "twopointer-parallel", "twopointer-f32"} {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/select",
			SelectRequest{X: x, Y: y, Method: method, GridSize: 32})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", method, resp.StatusCode, body)
		}
		var got SelectResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("%s: bad response body %q: %v", method, body, err)
		}
		if got.Method != method {
			t.Fatalf("%s: response method %q", method, got.Method)
		}
		if got.Index != base.Index {
			t.Fatalf("%s selected index %d, sorted selected %d", method, got.Index, base.Index)
		}
	}
}

// TestMethodNotAllowed pins the Go 1.22 pattern routing: wrong verbs
// are 405, unknown paths 404.
func TestMethodNotAllowed(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(context.Background())

	resp, err := ts.Client().Get(ts.URL + "/v1/select")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/select: %d, want 405", resp.StatusCode)
	}
	resp, err = ts.Client().Post(ts.URL+"/v1/nope", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /v1/nope: %d, want 404", resp.StatusCode)
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines;
// meaningful under -race, and checks no observation is lost.
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(w*i) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("histogram count %d, want %d", h.Count(), workers*per)
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(h.String()), &m); err != nil {
		t.Fatalf("histogram String() is not JSON: %v", err)
	}
	var total float64
	for _, v := range m["buckets"].(map[string]any) {
		total += v.(float64)
	}
	if int(total) != workers*per {
		t.Fatalf("bucket sum %v, want %d", total, workers*per)
	}
}

// TestSubmitDuringConcurrentDrain races many submitters against Drain;
// the invariant is purely "no panic, no deadlock, every submit returns"
// — exactly the send-vs-close race the mutex exists to prevent.
func TestSubmitDuringConcurrentDrain(t *testing.T) {
	for round := 0; round < 20; round++ {
		srv := New(Config{Workers: 2, QueueDepth: 2})
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				srv.submit(context.Background(), func(context.Context) {
					time.Sleep(time.Millisecond)
				})
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := srv.Drain(context.Background()); err != nil {
				t.Errorf("round %d: Drain: %v", round, err)
			}
		}()
		wg.Wait()
	}
}

func init() {
	// Guard against the test binary inheriting a tiny GOMAXPROCS and
	// the default-config servers having zero workers.
	if got := (Config{}).withDefaults(); got.Workers < 1 || got.QueueDepth < 1 {
		panic(fmt.Sprintf("bad defaults: %+v", got))
	}
}
