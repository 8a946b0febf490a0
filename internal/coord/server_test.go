package coord

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func postSelect(t *testing.T, s *Server, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/select", bytes.NewReader(b))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func TestServerSelectAndMetrics(t *testing.T) {
	c := testCluster(t, 3, Config{Shards: 3, CacheEntries: 4})
	s := NewServer(c, ServerConfig{})
	x, y := testData(100, 21)
	body := SelectRequest{X: x, Y: y, Method: "twopointer", GridSize: 20, KeepScores: true}

	w := postSelect(t, s, body)
	if w.Code != 200 {
		t.Fatalf("select: %d %s", w.Code, w.Body.String())
	}
	var first SelectResponse
	if err := json.Unmarshal(w.Body.Bytes(), &first); err != nil {
		t.Fatal(err)
	}
	if first.CacheHit || first.Shards != 3 || first.N != 100 || len(first.Scores) != 20 {
		t.Fatalf("unexpected first response: %+v", first)
	}

	w = postSelect(t, s, body)
	var second SelectResponse
	if err := json.Unmarshal(w.Body.Bytes(), &second); err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("replay was not a cache hit")
	}
	if second.Bandwidth != first.Bandwidth || *second.CV != *first.CV || second.Index != first.Index {
		t.Fatalf("replay differs: %+v vs %+v", second, first)
	}

	mreq := httptest.NewRequest("GET", "/metrics", nil)
	mw := httptest.NewRecorder()
	s.ServeHTTP(mw, mreq)
	var metrics struct {
		Cache struct {
			Hits    int64 `json:"hits"`
			Misses  int64 `json:"misses"`
			Entries int   `json:"entries"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(mw.Body.Bytes(), &metrics); err != nil {
		t.Fatalf("metrics JSON: %v\n%s", err, mw.Body.String())
	}
	if metrics.Cache.Hits != 1 || metrics.Cache.Misses != 1 || metrics.Cache.Entries != 1 {
		t.Errorf("cache counters %+v, want hits=1 misses=1 entries=1", metrics.Cache)
	}

	hreq := httptest.NewRequest("GET", "/healthz", nil)
	hw := httptest.NewRecorder()
	s.ServeHTTP(hw, hreq)
	if hw.Code != 200 {
		t.Errorf("healthz: %d", hw.Code)
	}
}

func TestServerRejects(t *testing.T) {
	c := testCluster(t, 2, Config{})
	s := NewServer(c, ServerConfig{MaxN: 64, MaxGrid: 32})
	x, y := testData(10, 22)
	cases := []struct {
		name string
		body any
		code int
	}{
		{"bad method", SelectRequest{X: x, Y: y, Method: "gpu"}, 400},
		{"mismatch", SelectRequest{X: x, Y: y[:4]}, 400},
		{"tiny", SelectRequest{X: x[:1], Y: y[:1]}, 400},
		{"grid too big", SelectRequest{X: x, Y: y, GridSize: 100}, 400},
		{"unknown field", map[string]any{"x": x, "y": y, "bogus": 1}, 400},
		{"too many obs", func() SelectRequest { bx, by := testData(100, 23); return SelectRequest{X: bx, Y: by} }(), 413},
		{"bad grid range", SelectRequest{X: x, Y: y, GridMin: 2, GridMax: 1}, 400},
	}
	for _, tc := range cases {
		if w := postSelect(t, s, tc.body); w.Code != tc.code {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, w.Code, tc.code, w.Body.String())
		}
	}
}

// TestDecodeSelectRequestLimits pins the body contract of /v1/select
// with a small limit in place of the 512 MiB one: a JSON object that
// does not end within the limit is rejected with 413, never answered
// as a truncated body, and data after the object is rejected with 400.
func TestDecodeSelectRequestLimits(t *testing.T) {
	const limit = 48
	valid := `{"x":[0.1,0.5,0.9],"y":[1,2,3]}`
	cases := []struct {
		name, body string
		code       int
		msg        string
	}{
		{"fits", valid, http.StatusOK, ""},
		{"fits with trailing newline", valid + "\n", http.StatusOK, ""},
		{"over the limit", `{"x":[0.1,0.5,0.9,0.95],"y":[1,2,3,4],"grid_size":16}`, http.StatusRequestEntityTooLarge, "exceeds the limit of 48 bytes"},
		{"object cut by the limit", valid[:len(valid)-1] + strings.Repeat(" ", limit) + "}", http.StatusRequestEntityTooLarge, "exceeds the limit of 48 bytes"},
		{"second object", valid + `{}`, http.StatusBadRequest, "trailing data after object"},
		{"trailing garbage", valid + `x`, http.StatusBadRequest, "trailing data after object"},
		{"truncated", `{"x":[0.1,`, http.StatusBadRequest, "invalid JSON body"},
		{"unknown field", `{"x":[1,2],"bogus":1}`, http.StatusBadRequest, "unknown field"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body := io.NopCloser(strings.NewReader(tc.body))
			req, code, err := decodeSelectRequest(httptest.NewRecorder(), body, limit)
			if code != tc.code {
				t.Fatalf("status %d, want %d (err %v)", code, tc.code, err)
			}
			if tc.code == http.StatusOK {
				if err != nil || len(req.X) == 0 {
					t.Fatalf("decoded %+v, err %v", req, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.msg) {
				t.Errorf("error %v, want it to mention %q", err, tc.msg)
			}
		})
	}
}
