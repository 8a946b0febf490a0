package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/kernreg"
)

// mvTestMatrix builds a deterministic bivariate sample shaped like the
// univariate testdata helper.
func mvTestMatrix(n int, seed int64) ([][]float64, []float64) {
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		t := float64(i) / float64(n)
		u := math.Mod(float64(i)*0.6180339887+float64(seed)*0.1, 1)
		x[i] = []float64{t, u}
		y[i] = t + 2*u*u + 0.3*math.Sin(float64(seed)*12.9898+float64(i)*78.233)
	}
	return x, y
}

func TestMVSelectEndpointMatchesDirectCall(t *testing.T) {
	srv := New(Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(context.Background())

	x, y := mvTestMatrix(96, 3)
	for _, mesh := range []bool{true, false} {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/select",
			SelectRequest{Method: "mv", XMatrix: x, Y: y, GridSize: 8, Mesh: mesh})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mesh=%v status %d: %s", mesh, resp.StatusCode, body)
		}
		var got SelectResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("bad response body %q: %v", body, err)
		}
		want, err := kernreg.SelectBandwidthMV(x, y, 8, mesh)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Bandwidths) != 2 || got.Bandwidths[0] != want.Bandwidths[0] || got.Bandwidths[1] != want.Bandwidths[1] {
			t.Fatalf("mesh=%v served bandwidths %v differ from direct %v", mesh, got.Bandwidths, want.Bandwidths)
		}
		if got.CV == nil || *got.CV != want.CV {
			t.Fatalf("mesh=%v served CV %v differs from direct %g", mesh, got.CV, want.CV)
		}
		if got.Method != "mv" || got.Index != -1 || got.N != len(x) {
			t.Fatalf("mesh=%v response metadata: %+v", mesh, got)
		}
		if got.Evals != want.Evals || got.Sweeps != want.Sweeps {
			t.Fatalf("mesh=%v evals/sweeps (%d, %d) differ from direct (%d, %d)",
				mesh, got.Evals, got.Sweeps, want.Evals, want.Sweeps)
		}
		if mesh && got.Evals != 64 {
			t.Fatalf("mesh evals = %d, want 8²", got.Evals)
		}
	}
}

// mvBodyAt is a "method": "mv" mesh body of rows rows of mvMaxDim
// coordinates, with every number written out to 30 or 31 characters,
// padded with spaces inside the object to exactly size bytes.
func mvBodyAt(t *testing.T, rows int, size int64) []byte {
	t.Helper()
	var b strings.Builder
	b.WriteString(`{"method":"mv","mesh":true,"grid_size":1,"x_matrix":[`)
	for i := 0; i < rows; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('[')
		for j := 0; j < mvMaxDim; j++ {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%.28f", math.Mod(float64(i)*0.6180339887+float64(j)*0.1, 1))
		}
		b.WriteByte(']')
	}
	b.WriteString(`],"y":[`)
	for i := 0; i < rows; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%.29f", math.Mod(float64(i)*0.7548776662, 1))
	}
	b.WriteByte(']')
	pad := size - int64(b.Len()) - 1
	if pad < 0 {
		t.Fatalf("mv body needs %d bytes, more than %d", b.Len()+1, size)
	}
	b.WriteString(strings.Repeat(" ", int(pad)))
	b.WriteByte('}')
	return []byte(b.String())
}

// TestMVSelectRejections pins the exact 4xx status and message for every
// invalid mv request shape, and the body limit at its edge: a body of
// exactly Config.maxBodyBytes carrying the largest admissible mv arrays
// is served, one byte more is a 413. MaxN is below mvMaxN, so it is also
// the mv row cap.
func TestMVSelectRejections(t *testing.T) {
	srv := New(Config{Workers: 1, MaxN: 16})
	limit := srv.cfg.maxBodyBytes()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(context.Background())

	x, y := mvTestMatrix(16, 5)
	x17, y17 := mvTestMatrix(17, 5)
	bigX := make([][]float64, mvMaxN+1)
	bigY := make([]float64, mvMaxN+1)
	for i := range bigX {
		bigX[i] = []float64{float64(i), float64(i)}
		bigY[i] = float64(i)
	}
	wideRow := make([]float64, mvMaxDim+1)
	boolPtr := func(b bool) *bool { return &b }

	// A rawBody req is posted as is rather than marshalled.
	type rawBody []byte
	cases := []struct {
		name   string
		req    any
		status int
		msg    string
	}{
		{"x-matrix-without-mv", SelectRequest{X: []float64{1, 2}, Y: y[:2], XMatrix: x},
			http.StatusBadRequest, `x_matrix requires "method": "mv", got ""`},
		{"mesh-without-mv", SelectRequest{X: []float64{1, 2}, Y: []float64{1, 2}, Mesh: true},
			http.StatusBadRequest, `mesh requires "method": "mv", got ""`},
		{"x-with-mv", SelectRequest{Method: "mv", X: []float64{1, 2}, XMatrix: x, Y: y},
			http.StatusBadRequest, `method "mv" takes x_matrix, not x`},
		{"wrong-kernel", SelectRequest{Method: "mv", XMatrix: x, Y: y, Kernel: "gaussian"},
			http.StatusBadRequest, `method "mv" supports only the epanechnikov kernel, got "gaussian"`},
		{"grid-range", SelectRequest{Method: "mv", XMatrix: x, Y: y, GridMin: 0.1, GridMax: 1},
			http.StatusBadRequest, `grid_min and grid_max are not supported for method "mv" (grids are built per dimension)`},
		{"keep-scores", SelectRequest{Method: "mv", XMatrix: x, Y: y, KeepScores: true},
			http.StatusBadRequest, `keep_scores is not supported for method "mv"`},
		{"stable", SelectRequest{Method: "mv", XMatrix: x, Y: y, Stable: boolPtr(false)},
			http.StatusBadRequest, `stable is not supported for method "mv"`},
		{"row-count-mismatch", SelectRequest{Method: "mv", XMatrix: x, Y: y[:8]},
			http.StatusBadRequest, `x_matrix has 16 rows, y has 8`},
		{"too-few-rows", SelectRequest{Method: "mv", XMatrix: x[:1], Y: y[:1]},
			http.StatusBadRequest, `need at least 2 observations, have 1`},
		{"too-many-rows", SelectRequest{Method: "mv", XMatrix: bigX, Y: bigY},
			http.StatusRequestEntityTooLarge, `n=4097 exceeds the mv limit of 16 observations`},
		{"rows-over-max-n", SelectRequest{Method: "mv", XMatrix: x17, Y: y17},
			http.StatusRequestEntityTooLarge, `n=17 exceeds the mv limit of 16 observations`},
		{"empty-row", SelectRequest{Method: "mv", XMatrix: [][]float64{{}, {}}, Y: []float64{1, 2}},
			http.StatusBadRequest, `x_matrix rows must have at least 1 coordinate`},
		{"too-wide", SelectRequest{Method: "mv", XMatrix: [][]float64{wideRow, wideRow}, Y: []float64{1, 2}},
			http.StatusRequestEntityTooLarge, `dimension 9 exceeds the mv limit of 8`},
		{"ragged-rows", SelectRequest{Method: "mv", XMatrix: [][]float64{{1, 2}, {3}}, Y: []float64{1, 2}},
			http.StatusBadRequest, `x_matrix row 1 has 1 coordinates, row 0 has 2`},
		{"negative-grid-size", SelectRequest{Method: "mv", XMatrix: x, Y: y, GridSize: -1},
			http.StatusBadRequest, `grid_size must be positive, got -1`},
		{"oversized-grid", SelectRequest{Method: "mv", XMatrix: x, Y: y, GridSize: 5000},
			http.StatusRequestEntityTooLarge, `grid_size=5000 exceeds the limit of 2048`},
		{"oversized-mesh", SelectRequest{Method: "mv", XMatrix: [][]float64{{1, 1, 1}, {2, 2, 2}}, Y: []float64{1, 2}, GridSize: 64, Mesh: true},
			http.StatusRequestEntityTooLarge, `mesh of 64^3 cells exceeds the limit of 16384`},
		{"bags-with-mv", SelectRequest{Method: "mv", XMatrix: x, Y: y, Bags: intPtr(4)},
			http.StatusBadRequest, `bags, bag_size and seed require "method": "bagged", got "mv"`},
		{"zero-domain-dimension", SelectRequest{Method: "mv", XMatrix: [][]float64{{1, 5}, {2, 5}, {3, 5}}, Y: []float64{1, 2, 3}},
			http.StatusBadRequest, `mvreg: dimension 1 has zero domain`},
		{"largest-admissible-body", rawBody(mvBodyAt(t, 16, limit)), http.StatusOK, ""},
		{"oversized-body", rawBody(mvBodyAt(t, 16, limit+1)),
			http.StatusRequestEntityTooLarge, `request body exceeds the limit of 132096 bytes`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp *http.Response
			var body []byte
			if raw, ok := tc.req.(rawBody); ok {
				resp, body = postRaw(t, ts.Client(), ts.URL+"/v1/select", raw)
			} else {
				resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/select", tc.req)
			}
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %.200s", resp.StatusCode, tc.status, body)
			}
			if tc.status == http.StatusOK {
				var got SelectResponse
				if err := json.Unmarshal(body, &got); err != nil || len(got.Bandwidths) != mvMaxDim {
					t.Fatalf("served %s (err %v), want %d bandwidths", body, err, mvMaxDim)
				}
				return
			}
			if got := strings.TrimSpace(string(body)); got != tc.msg {
				t.Errorf("message %q, want %q", got, tc.msg)
			}
		})
	}
}

func intPtr(v int) *int { return &v }

// At the default MaxN the mv row cap is mvMaxN itself, and the body limit
// is set by /v1/fit-predict's three MaxN arrays, not by mv.
func TestMVRowCapAtDefaultMaxN(t *testing.T) {
	cfg := Config{}.withDefaults()
	if got := cfg.maxBodyBytes(); got != 9_665_536 {
		t.Errorf("default body limit %d bytes, want 9665536", got)
	}
	x, y := mvTestMatrix(mvMaxN+1, 5)
	herr := checkMVSelect(&SelectRequest{Method: "mv", XMatrix: x, Y: y}, cfg)
	want := "n=4097 exceeds the mv limit of 4096 observations"
	if herr == nil || herr.status != http.StatusRequestEntityTooLarge || herr.msg != want {
		t.Errorf("4097 rows at the default MaxN: %+v, want 413 %q", herr, want)
	}
}

// Non-finite coordinates cannot ride through json.Marshal (JSON has no
// Inf/NaN literals), so the finiteness rejections are exercised with a
// raw out-of-range body; Go's decoder rejects it before checkMVSelect,
// and either way the client sees a 400.
func TestMVSelectNonFiniteViaRawBody(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(context.Background())

	body := `{"method":"mv","x_matrix":[[1,2],[3,1e999]],"y":[1,2]}`
	resp, err := ts.Client().Post(ts.URL+"/v1/select", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}
