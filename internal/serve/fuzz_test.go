package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"testing"
)

// FuzzSelectRequestDecode fuzzes the /v1/select body decoder. The
// contract under test: any byte sequence either decodes to a fully
// validated request or fails with a 4xx httpError — never a panic and
// never a status outside [400, 500).
func FuzzSelectRequestDecode(f *testing.F) {
	cfg := Config{MaxN: 10_000, MaxGrid: 512}.withDefaults()

	// Well-formed seeds with the adversarial geometries the conformance
	// corpus exercises — duplicates, tight clusters, heavy tails —
	// generated locally: importing the corpus from an in-package test
	// would close an import cycle now that the conformance package
	// drives this server through the cluster coordinator. Small datasets
	// only: giant seed bodies slow mutation down without exercising any
	// extra decoder branch.
	rng := rand.New(rand.NewSource(1))
	for _, gen := range []func(i int) float64{
		func(i int) float64 { return float64(i) },                  // uniform spacing
		func(i int) float64 { return float64(i / 8) },              // heavy duplicates
		func(i int) float64 { return math.Exp(rng.Float64() * 6) }, // heavy tail
		func(i int) float64 { // two tight clusters
			return float64(i%2)*100 + rng.Float64()*1e-3
		},
	} {
		x := make([]float64, 64)
		y := make([]float64, 64)
		for i := range x {
			x[i] = gen(i)
			y[i] = math.Sin(x[i]) + rng.NormFloat64()
		}
		b, err := json.Marshal(SelectRequest{
			X: x, Y: y,
			GridSize: 16,
			GridMin:  0.1,
			GridMax:  5,
		})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// Malformed and boundary seeds steering the fuzzer at the decoder's
	// branch points.
	for _, s := range []string{
		``,
		`{}`,
		`null`,
		`[1,2,3]`,
		`{"x":[1,2],"y":[1,2]}`,
		`{"x":[1,2],"y":[1,2]}{"x":[3,4]}`,
		`{"x":[1,2],"y":[1]}`,
		`{"x":[1e308,2e308],"y":[1,2]}`,
		`{"x":[1,2],"y":[1,2],"method":"gpu","kernel":"uniform","grid_size":3}`,
		`{"x":[1,2],"y":[1,2],"grid_min":0.5,"grid_max":0.1}`,
		`{"x":[1,2],"y":[1,2],"grid_size":-1}`,
		`{"x":[1,2],"y":[1,2],"keep_scores":true,"unknown":0}`,
	} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		req, _, herr := decodeSelectRequest(bytes.NewReader(data), cfg)
		if herr != nil {
			if herr.status < 400 || herr.status >= 500 {
				t.Fatalf("decode error %q carries status %d, want 4xx", herr.msg, herr.status)
			}
			if herr.msg == "" {
				t.Fatal("decode error with empty message")
			}
			return
		}
		// A successful decode must have enforced every invariant the
		// handler and selector rely on.
		if req == nil {
			t.Fatal("nil request with nil error")
		}
		if len(req.X) != len(req.Y) {
			t.Fatalf("accepted length mismatch: %d vs %d", len(req.X), len(req.Y))
		}
		if len(req.X) < 2 || len(req.X) > cfg.MaxN {
			t.Fatalf("accepted n=%d outside [2, %d]", len(req.X), cfg.MaxN)
		}
		for _, v := range req.X {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("accepted non-finite x")
			}
		}
		for _, v := range req.Y {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("accepted non-finite y")
			}
		}
		if req.GridSize < 0 || req.GridSize > cfg.MaxGrid {
			t.Fatalf("accepted grid_size=%d outside [0, %d]", req.GridSize, cfg.MaxGrid)
		}
		if req.GridMin != 0 || req.GridMax != 0 {
			if !(req.GridMin > 0) || !(req.GridMax > req.GridMin) {
				t.Fatalf("accepted bad grid range [%g, %g]", req.GridMin, req.GridMax)
			}
		}
		if req.Method != "" {
			valid := map[string]bool{
				"sorted": true, "sorted-parallel": true, "sorted-f32": true,
				"naive": true, "numerical": true, "gpu": true, "gpu-tiled": true,
				"twopointer": true, "twopointer-parallel": true, "twopointer-f32": true,
			}
			if !valid[req.Method] {
				t.Fatalf("accepted unknown method %q", req.Method)
			}
		}
	})
}

// FuzzSelectEndpoint drives the same fuzz corpus through the full HTTP
// handler against a live pool: whatever the body, the server must
// answer (no panic, no hang) and malformed input must never surface as
// a 5xx.
func FuzzSelectEndpoint(f *testing.F) {
	cfg := Config{Workers: 2, MaxN: 512, MaxGrid: 64}
	f.Add([]byte(`{"x":[0,1,2,3],"y":[1,0,1,0],"grid_size":4}`))
	f.Add([]byte(`{"x":"p","y":[]}`))
	f.Add([]byte(`{`))
	// A valid object cut one byte past the body limit.
	f.Add([]byte(`{"x":[0,1,2,3],"y":[1,0,1,0]` + strings.Repeat(" ", int(cfg.withDefaults().maxBodyBytes())) + `}`))

	srv := New(cfg)
	handler := srv.Handler()

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := http.NewRequest(http.MethodPost, "/v1/select", bytes.NewReader(data))
		if err != nil {
			t.Skip()
		}
		rec := &statusRecorder{header: http.Header{}}
		handler.ServeHTTP(rec, req)
		if rec.status >= 500 {
			t.Fatalf("body %q produced status %d", data, rec.status)
		}
	})
}

// statusRecorder is a minimal ResponseWriter capturing only the status
// (httptest.ResponseRecorder allocates bodies the fuzzer doesn't need).
type statusRecorder struct {
	header http.Header
	status int
}

func (r *statusRecorder) Header() http.Header { return r.header }
func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return len(b), nil
}
func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}
