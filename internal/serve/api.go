package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"repro/kernreg"
)

// HTTP JSON API. Routes (Go 1.22 method patterns):
//
//	POST /v1/select         — bandwidth selection
//	POST /v1/fit-predict    — selection (or given h) + prediction at points
//	GET  /healthz           — liveness; 503 while draining
//	GET  /metrics           — counters and latency histograms as JSON
//	GET  /v1/devices        — fleet device health (see fleet.go)
//	POST /v1/devices/inject — fault injection, only with FaultInjection
//
// Error mapping: malformed or over-limit bodies → 400/413 before the
// pool is involved; a full queue → 429; draining → 503; a request that
// exceeds its compute deadline → 504. Every POST body is read through
// http.MaxBytesReader (Config.maxBodyBytes), so an oversized body is a
// 413 after at most that many bytes, never buffered whole.

// SelectRequest is the body of POST /v1/select.
type SelectRequest struct {
	X []float64 `json:"x"`
	Y []float64 `json:"y"`
	// Method names the search algorithm (kernreg.ParseMethod); empty
	// means "sorted".
	Method string `json:"method,omitempty"`
	// Kernel names the kernel function; empty means "epanechnikov".
	Kernel string `json:"kernel,omitempty"`
	// GridSize is the number of candidate bandwidths; 0 means 50.
	GridSize int `json:"grid_size,omitempty"`
	// GridMin/GridMax override the paper's default grid range when both
	// are set.
	GridMin float64 `json:"grid_min,omitempty"`
	GridMax float64 `json:"grid_max,omitempty"`
	// KeepScores returns CV(h) for every grid point.
	KeepScores bool `json:"keep_scores,omitempty"`
	// Stable toggles compensated summation in the grid-search hot loops
	// (kernreg.Stable). Omitted or null means on — the accuracy default;
	// false requests the paper's plain float32/float64 accumulation for
	// ablation runs.
	Stable *bool `json:"stable,omitempty"`
	// Bags, BagSize and Seed configure "method": "bagged" (pointers so an
	// explicit zero or negative value is distinguishable from absent and
	// rejected with a crisp message). Omitted values take the large-n
	// defaults: 20 bags of size min(4096, max(512, ⌈n^0.7⌉)), seed 0.
	Bags    *int   `json:"bags,omitempty"`
	BagSize *int   `json:"bag_size,omitempty"`
	Seed    *int64 `json:"seed,omitempty"`
	// Aggregation selects how "method": "bagged" combines the per-bag
	// winners: "mean" (default) or "median".
	Aggregation string `json:"aggregation,omitempty"`
	// XMatrix and Mesh configure "method": "mv" — multivariate selection
	// over the rows of x_matrix. Mesh=true searches the full Cartesian
	// grid (grid_size candidates per dimension, default 20) with the
	// fast-sum-updating sweep; false runs coordinate descent.
	XMatrix [][]float64 `json:"x_matrix,omitempty"`
	Mesh    bool        `json:"mesh,omitempty"`
}

// SelectResponse is the body of a successful /v1/select.
type SelectResponse struct {
	Bandwidth float64 `json:"bandwidth"`
	// CV is null when the score is not finite (degenerate samples).
	CV     *float64   `json:"cv"`
	Index  int        `json:"index"`
	Method string     `json:"method"`
	N      int        `json:"n"`
	Scores []*float64 `json:"scores,omitempty"`
	// Requeues and Degraded report the fleet scheduler's self-healing
	// bookkeeping for "method": "fleet"; both are omitted (zero) for the
	// host-side methods and for healthy fleet runs.
	Requeues int `json:"requeues,omitempty"`
	Degraded int `json:"degraded_devices,omitempty"`
	// BagCVVariance reports the unbiased sample variance of the per-bag
	// CV minima for "method": "bagged" (0 on the degenerate m == n
	// path); omitted for every other method.
	BagCVVariance *float64 `json:"bag_cv_variance,omitempty"`
	// Bandwidths, Evals and Sweeps report a "method": "mv" selection (the
	// scalar Bandwidth is 0 and Index is -1 there — no univariate grid
	// exists).
	Bandwidths []float64 `json:"bandwidths,omitempty"`
	Evals      int       `json:"evals,omitempty"`
	Sweeps     int       `json:"sweeps,omitempty"`
	ElapsedMs  float64   `json:"elapsed_ms"`
}

// FitPredictRequest is the body of POST /v1/fit-predict.
type FitPredictRequest struct {
	X []float64 `json:"x"`
	Y []float64 `json:"y"`
	// Bandwidth fixes h; 0 selects it first with the sorted search.
	Bandwidth float64 `json:"bandwidth,omitempty"`
	// Kernel names the kernel function; empty means "epanechnikov".
	Kernel string `json:"kernel,omitempty"`
	// Points are the locations to predict at.
	Points []float64 `json:"points"`
}

// FitPredictResponse is the body of a successful /v1/fit-predict.
type FitPredictResponse struct {
	Bandwidth float64 `json:"bandwidth"`
	// Predictions align with Points; null where no observation carries
	// weight (the estimate is undefined there).
	Predictions []*float64 `json:"predictions"`
	ElapsedMs   float64    `json:"elapsed_ms"`
}

// httpError is a decode/validation failure with its HTTP status. The
// fuzz target asserts every decode failure is 4xx — encoding the status
// in the type keeps that property checkable without a running server.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func tooLarge(format string, args ...any) *httpError {
	return &httpError{status: http.StatusRequestEntityTooLarge, msg: fmt.Sprintf(format, args...)}
}

// Body-size budget. A JSON number of float64 precision takes at most
// 25 bytes with its separator, and a base64 float64 about 11, so 32
// bytes per number leaves room for whitespace; bodySlack covers field
// names, scalar fields and the brackets of the x_matrix rows.
const (
	bytesPerNumber = 32
	bodySlack      = 64 << 10
)

// maxBodyBytes bounds every request body: room for the largest array
// set an admissible request carries — x, y and points on
// /v1/fit-predict; x, y and the grid on /v1/shard; and an mv
// x_matrix of mvMaxN rows of mvMaxDim coordinates plus y, which is
// capped by mvMaxN rather than MaxN — at bytesPerNumber each.
func (c Config) maxBodyBytes() int64 {
	numbers := max(3*c.MaxN, 2*c.MaxN+c.MaxGrid, (mvMaxDim+1)*mvMaxN)
	return int64(numbers)*bytesPerNumber + bodySlack
}

// limitBody reads the request body through http.MaxBytesReader, so
// decodeJSON stops after limit bytes instead of buffering any body.
func limitBody(limit int64, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, limit)
		h(w, r)
	}
}

// decodeJSON decodes exactly one strict JSON object from body. A body
// cut by limitBody is a 413.
func decodeJSON(body io.Reader, dst any) *httpError {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var over *http.MaxBytesError
		if errors.As(err, &over) {
			return tooLarge("request body exceeds the limit of %d bytes", over.Limit)
		}
		return badRequest("invalid JSON body: %v", err)
	}
	if dec.More() {
		return badRequest("invalid JSON body: trailing data after object")
	}
	return nil
}

// checkSample validates the common x/y constraints against the limits.
func checkSample(x, y []float64, cfg Config) *httpError {
	if len(x) != len(y) {
		return badRequest("x has %d observations, y has %d", len(x), len(y))
	}
	if len(x) < 2 {
		return badRequest("need at least 2 observations, have %d", len(x))
	}
	if len(x) > cfg.MaxN {
		return tooLarge("n=%d exceeds the limit of %d observations", len(x), cfg.MaxN)
	}
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return badRequest("x[%d] is not finite", i)
		}
	}
	for i, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return badRequest("y[%d] is not finite", i)
		}
	}
	return nil
}

// decodeSelectRequest parses and validates a /v1/select body, returning
// the kernreg options it maps to. All failures are 4xx by construction.
func decodeSelectRequest(body io.Reader, cfg Config) (*SelectRequest, []kernreg.Option, *httpError) {
	var req SelectRequest
	if herr := decodeJSON(body, &req); herr != nil {
		return nil, nil, herr
	}
	if req.Method == "mv" {
		// The multivariate method has its own sample shape (x_matrix) and
		// admission limits; it shares none of the kernreg options.
		if herr := checkMVSelect(&req, cfg); herr != nil {
			return nil, nil, herr
		}
		return &req, nil, nil
	}
	if len(req.XMatrix) != 0 {
		return nil, nil, badRequest("x_matrix requires \"method\": \"mv\", got %q", req.Method)
	}
	if req.Mesh {
		return nil, nil, badRequest("mesh requires \"method\": \"mv\", got %q", req.Method)
	}
	if herr := checkSample(req.X, req.Y, cfg); herr != nil {
		return nil, nil, herr
	}
	var opts []kernreg.Option
	switch {
	case req.Method == "fleet":
		// "fleet" is served by the device fleet, not kernreg; it keeps
		// the shared grid/score options but takes its own admission
		// limit (every kernel thread is simulated on the host CPU) and
		// supports only the device program's default kernel.
		if len(req.X) > fleetMaxN {
			return nil, nil, tooLarge("n=%d exceeds the fleet limit of %d observations", len(req.X), fleetMaxN)
		}
		if req.Kernel != "" && req.Kernel != "epanechnikov" {
			return nil, nil, badRequest("method \"fleet\" supports only the epanechnikov kernel, got %q", req.Kernel)
		}
	case req.Method != "":
		m, err := kernreg.ParseMethod(req.Method)
		if err != nil {
			return nil, nil, badRequest("unknown method %q", req.Method)
		}
		opts = append(opts, kernreg.WithMethod(m))
	}
	if req.Kernel != "" {
		opts = append(opts, kernreg.WithKernel(req.Kernel))
	}
	switch {
	case req.GridSize < 0:
		return nil, nil, badRequest("grid_size must be positive, got %d", req.GridSize)
	case req.GridSize > cfg.MaxGrid:
		return nil, nil, tooLarge("grid_size=%d exceeds the limit of %d", req.GridSize, cfg.MaxGrid)
	case req.GridSize > 0:
		opts = append(opts, kernreg.GridSize(req.GridSize))
	}
	if req.GridMin != 0 || req.GridMax != 0 {
		if math.IsNaN(req.GridMin) || math.IsInf(req.GridMin, 0) || math.IsNaN(req.GridMax) || math.IsInf(req.GridMax, 0) {
			return nil, nil, badRequest("grid range must be finite")
		}
		if !(req.GridMin > 0) || !(req.GridMax > req.GridMin) {
			return nil, nil, badRequest("grid range requires 0 < grid_min < grid_max, got [%g, %g]", req.GridMin, req.GridMax)
		}
		opts = append(opts, kernreg.GridRange(req.GridMin, req.GridMax))
	}
	if req.KeepScores {
		opts = append(opts, kernreg.KeepScores())
	}
	if req.Stable != nil {
		opts = append(opts, kernreg.Stable(*req.Stable))
	}
	if req.Aggregation != "" {
		if req.Method != "bagged" {
			return nil, nil, badRequest("aggregation requires \"method\": \"bagged\", got %q", req.Method)
		}
		if req.Aggregation != "mean" && req.Aggregation != "median" {
			return nil, nil, badRequest("unknown aggregation %q (want \"mean\" or \"median\")", req.Aggregation)
		}
		opts = append(opts, kernreg.Aggregation(req.Aggregation))
	}
	if req.Bags != nil || req.BagSize != nil || req.Seed != nil {
		if req.Method != "bagged" {
			return nil, nil, badRequest("bags, bag_size and seed require \"method\": \"bagged\", got %q", req.Method)
		}
		if req.Bags != nil {
			switch {
			case *req.Bags < 1:
				return nil, nil, badRequest("bags must be at least 1, got %d", *req.Bags)
			case *req.Bags > maxBags:
				return nil, nil, tooLarge("bags=%d exceeds the limit of %d", *req.Bags, maxBags)
			}
			opts = append(opts, kernreg.Bags(*req.Bags))
		}
		if req.BagSize != nil {
			switch {
			case *req.BagSize < 2:
				return nil, nil, badRequest("bag_size must be at least 2, got %d", *req.BagSize)
			case *req.BagSize > len(req.X):
				return nil, nil, badRequest("bag_size=%d exceeds n=%d", *req.BagSize, len(req.X))
			}
			opts = append(opts, kernreg.BagSize(*req.BagSize))
		}
		if req.Seed != nil {
			if *req.Seed < 0 {
				return nil, nil, badRequest("seed must be non-negative, got %d", *req.Seed)
			}
			opts = append(opts, kernreg.Seed(*req.Seed))
		}
	}
	return &req, opts, nil
}

// maxBags bounds the subsample count a single request can ask for —
// each bag is a full two-pointer sweep, so bags multiplies compute the
// same way n does and needs its own admission limit.
const maxBags = 256

// decodeFitPredictRequest parses and validates a /v1/fit-predict body.
func decodeFitPredictRequest(body io.Reader, cfg Config) (*FitPredictRequest, *httpError) {
	var req FitPredictRequest
	if herr := decodeJSON(body, &req); herr != nil {
		return nil, herr
	}
	if herr := checkSample(req.X, req.Y, cfg); herr != nil {
		return nil, herr
	}
	if math.IsNaN(req.Bandwidth) || math.IsInf(req.Bandwidth, 0) || req.Bandwidth < 0 {
		return nil, badRequest("bandwidth must be a finite non-negative number")
	}
	if len(req.Points) == 0 {
		return nil, badRequest("points must be non-empty")
	}
	if len(req.Points) > cfg.MaxN {
		return nil, tooLarge("len(points)=%d exceeds the limit of %d", len(req.Points), cfg.MaxN)
	}
	for i, v := range req.Points {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, badRequest("points[%d] is not finite", i)
		}
	}
	return &req, nil
}

func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	limit := s.cfg.maxBodyBytes()
	mux.HandleFunc("POST /v1/select", limitBody(limit, s.handleSelect))
	mux.HandleFunc("POST /v1/shard", limitBody(limit, s.handleShard))
	mux.HandleFunc("GET /v1/load", s.handleLoad)
	mux.HandleFunc("POST /v1/fit-predict", limitBody(limit, s.handleFitPredict))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/devices", s.handleDevices)
	if s.cfg.FaultInjection {
		mux.HandleFunc("POST /v1/devices/inject", limitBody(limit, s.handleInject))
	}
	return mux
}

// statusClientClosedRequest is nginx's conventional code for "client
// disconnected before the response"; the write is best-effort since the
// peer is gone, but the access log keeps the distinct status.
const statusClientClosedRequest = 499

// runJob admits fn into the pool and maps pool/selector errors to HTTP.
// It returns false if the response has already been written.
func (s *Server) runJob(w http.ResponseWriter, r *http.Request, method string, fn func(ctx context.Context) error) bool {
	s.metrics.IncRequests()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	start := time.Now()
	var jobErr error
	submitErr := s.submit(ctx, func(ctx context.Context) {
		jobErr = fn(ctx)
	})
	s.metrics.Latency[method].Observe(time.Since(start))
	switch {
	case errors.Is(submitErr, ErrQueueFull):
		http.Error(w, submitErr.Error(), http.StatusTooManyRequests)
		return false
	case errors.Is(submitErr, ErrDraining):
		http.Error(w, submitErr.Error(), http.StatusServiceUnavailable)
		return false
	}
	switch {
	case jobErr == nil:
		return true
	case errors.Is(jobErr, context.DeadlineExceeded):
		s.metrics.IncFailures()
		http.Error(w, "selection exceeded the compute deadline", http.StatusGatewayTimeout)
	case errors.Is(jobErr, context.Canceled):
		s.metrics.IncFailures()
		http.Error(w, "client closed request", statusClientClosedRequest)
	default:
		// Anything else the selector rejects at this point is an input
		// the decoder's structural checks cannot see (e.g. a degenerate
		// domain for the grid builder) — still the client's data.
		s.metrics.IncFailures()
		http.Error(w, jobErr.Error(), http.StatusBadRequest)
	}
	return false
}

func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	req, opts, herr := decodeSelectRequest(r.Body, s.cfg)
	if herr != nil {
		s.metrics.IncRejected()
		http.Error(w, herr.msg, herr.status)
		return
	}
	if req.Method == "fleet" {
		s.handleFleetSelect(w, r, req)
		return
	}
	if req.Method == "mv" {
		s.handleMVSelect(w, r, req)
		return
	}
	start := time.Now()
	var sel kernreg.Selection
	ok := s.runJob(w, r, "select", func(ctx context.Context) error {
		var err error
		sel, err = kernreg.SelectBandwidthContext(ctx, req.X, req.Y, opts...)
		return err
	})
	if !ok {
		return
	}
	resp := SelectResponse{
		Bandwidth: sel.Bandwidth,
		CV:        finitePtr(sel.CV),
		Index:     sel.Index,
		Method:    sel.Method.String(),
		N:         len(req.X),
		ElapsedMs: float64(time.Since(start)) / float64(time.Millisecond),
	}
	if req.KeepScores {
		resp.Scores = finiteSlice(sel.Scores)
	}
	if req.Method == "bagged" {
		resp.BagCVVariance = finitePtr(sel.BagCVVariance)
	}
	writeJSON(w, resp)
}

func (s *Server) handleFitPredict(w http.ResponseWriter, r *http.Request) {
	req, herr := decodeFitPredictRequest(r.Body, s.cfg)
	if herr != nil {
		s.metrics.IncRejected()
		http.Error(w, herr.msg, herr.status)
		return
	}
	start := time.Now()
	var resp FitPredictResponse
	ok := s.runJob(w, r, "fit-predict", func(ctx context.Context) error {
		h := req.Bandwidth
		if h == 0 {
			sel, err := kernreg.SelectBandwidthContext(ctx, req.X, req.Y)
			if err != nil {
				return err
			}
			h = sel.Bandwidth
		}
		kernelName := req.Kernel
		if kernelName == "" {
			kernelName = "epanechnikov"
		}
		reg, err := kernreg.FitKernel(req.X, req.Y, h, kernelName)
		if err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		resp = FitPredictResponse{
			Bandwidth:   h,
			Predictions: finiteSlice(reg.PredictGrid(req.Points)),
		}
		return nil
	})
	if !ok {
		return
	}
	resp.ElapsedMs = float64(time.Since(start)) / float64(time.Millisecond)
	writeJSON(w, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		http.Error(w, `{"status":"draining"}`, http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := s.metrics.WriteJSON(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// finitePtr maps a non-finite float to JSON null — encoding/json
// rejects NaN and ±Inf outright, and a degenerate sample can legally
// produce them (e.g. a CV score over an empty leave-one-out window).
func finitePtr(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

func finiteSlice(vs []float64) []*float64 {
	out := make([]*float64, len(vs))
	for i, v := range vs {
		out[i] = finitePtr(v)
	}
	return out
}
