package coord

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"repro/internal/bandwidth"
)

// HTTP front end for the coordinator (cmd/kerncoord). Routes:
//
//	POST /v1/select — sharded bandwidth selection
//	GET  /healthz   — liveness
//	GET  /metrics   — cache, hedge and latency counters as JSON
//
// The request shape is kernregd's /v1/select restricted to the
// shardable float64 methods, so a client can point at a coordinator or
// a single replica interchangeably; the response adds the coordinator's
// own fields (cache_hit, shards, hedges).

// Default admission limits for the HTTP layer; Select itself has no
// size opinion beyond n >= 2.
const (
	defaultMaxN    = 200_000
	defaultMaxGrid = 4096
)

// ServerConfig configures the HTTP front end.
type ServerConfig struct {
	// MaxN caps observations per request (0 means 200000).
	MaxN int
	// MaxGrid caps grid_size (0 means 4096).
	MaxGrid int
	// Timeout bounds one selection end to end (0 means none).
	Timeout time.Duration
}

// Server serves the coordinator API.
type Server struct {
	coord *Coordinator
	cfg   ServerConfig
	mux   *http.ServeMux
}

// NewServer wraps a Coordinator in the HTTP API.
func NewServer(c *Coordinator, cfg ServerConfig) *Server {
	if cfg.MaxN <= 0 {
		cfg.MaxN = defaultMaxN
	}
	if cfg.MaxGrid <= 0 {
		cfg.MaxGrid = defaultMaxGrid
	}
	s := &Server{coord: c, cfg: cfg}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/select", s.handleSelect)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = c.Metrics().WriteJSON(w)
	})
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// SelectRequest is the body of the coordinator's POST /v1/select.
type SelectRequest struct {
	X []float64 `json:"x"`
	Y []float64 `json:"y"`
	// Method is a shardable selector name; empty means "sorted".
	Method string `json:"method,omitempty"`
	// Kernel names the kernel function; empty means "epanechnikov".
	Kernel string `json:"kernel,omitempty"`
	// GridSize is the number of candidate bandwidths; 0 means 50.
	GridSize int `json:"grid_size,omitempty"`
	// GridMin/GridMax override the paper's default grid range when both
	// are set.
	GridMin    float64 `json:"grid_min,omitempty"`
	GridMax    float64 `json:"grid_max,omitempty"`
	KeepScores bool    `json:"keep_scores,omitempty"`
	Stable     *bool   `json:"stable,omitempty"`
}

// SelectResponse is the body of a successful coordinator /v1/select.
type SelectResponse struct {
	Bandwidth float64    `json:"bandwidth"`
	CV        *float64   `json:"cv"`
	Index     int        `json:"index"`
	Method    string     `json:"method"`
	N         int        `json:"n"`
	Scores    []*float64 `json:"scores,omitempty"`
	CacheHit  bool       `json:"cache_hit"`
	Shards    int        `json:"shards"`
	Hedges    int        `json:"hedges"`
	ElapsedMs float64    `json:"elapsed_ms"`
}

// maxBodyBytes caps a /v1/select body.
const maxBodyBytes = 512 << 20

// decodeSelectRequest parses one JSON object from body, read through
// http.MaxBytesReader with the given byte limit, and reports the HTTP
// status for a failure: 413 for an object that does not end within the
// limit, 400 for malformed JSON, unknown fields or trailing data after
// the object, as kernregd's decoder does.
func decodeSelectRequest(w http.ResponseWriter, body io.ReadCloser, limit int64) (SelectRequest, int, error) {
	var req SelectRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, body, limit))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	if err == nil && dec.More() {
		err = errors.New("trailing data after object")
	}
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return SelectRequest{}, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds the limit of %d bytes", tooLarge.Limit)
	case err != nil:
		return SelectRequest{}, http.StatusBadRequest, fmt.Errorf("invalid JSON body: %w", err)
	}
	return req, http.StatusOK, nil
}

func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	req, status, err := decodeSelectRequest(w, r.Body, maxBodyBytes)
	if err != nil {
		http.Error(w, err.Error(), status)
		return
	}
	if len(req.X) != len(req.Y) {
		http.Error(w, fmt.Sprintf("x has %d observations, y has %d", len(req.X), len(req.Y)), http.StatusBadRequest)
		return
	}
	if len(req.X) < 2 {
		http.Error(w, fmt.Sprintf("need at least 2 observations, got %d", len(req.X)), http.StatusBadRequest)
		return
	}
	if len(req.X) > s.cfg.MaxN {
		http.Error(w, fmt.Sprintf("n=%d exceeds the limit of %d observations", len(req.X), s.cfg.MaxN), http.StatusRequestEntityTooLarge)
		return
	}
	k := req.GridSize
	if k == 0 {
		k = 50
	}
	if k < 0 || k > s.cfg.MaxGrid {
		http.Error(w, fmt.Sprintf("grid_size=%d outside [1, %d]", req.GridSize, s.cfg.MaxGrid), http.StatusBadRequest)
		return
	}
	var g bandwidth.Grid
	if req.GridMin != 0 || req.GridMax != 0 {
		g, err = bandwidth.NewGrid(req.GridMin, req.GridMax, k)
	} else {
		g, err = bandwidth.DefaultGrid(req.X, k)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ctx := r.Context()
	if s.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
		defer cancel()
	}
	start := time.Now()
	res, err := s.coord.Select(ctx, Job{
		X: req.X, Y: req.Y, Grid: g,
		Method: req.Method, Kernel: req.Kernel,
		Stable: req.Stable, KeepScores: req.KeepScores,
	})
	if err != nil {
		status := http.StatusBadRequest
		if ctx.Err() != nil {
			status = http.StatusGatewayTimeout
		}
		http.Error(w, err.Error(), status)
		return
	}
	method := req.Method
	if method == "" {
		method = "sorted"
	}
	resp := SelectResponse{
		Bandwidth: res.H,
		CV:        finitePtr(res.CV),
		Index:     res.Index,
		Method:    method,
		N:         len(req.X),
		CacheHit:  res.CacheHit,
		Shards:    res.Shards,
		Hedges:    res.Hedged,
		ElapsedMs: float64(time.Since(start)) / float64(time.Millisecond),
	}
	if req.KeepScores {
		resp.Scores = make([]*float64, len(res.Scores))
		for i, v := range res.Scores {
			resp.Scores[i] = finitePtr(v)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// finitePtr maps non-finite values to JSON null, matching kernregd.
func finitePtr(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}
