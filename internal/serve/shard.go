package serve

import (
	"context"
	"io"
	"net/http"
	"time"

	"repro/internal/bandwidth"
	"repro/internal/kernel"
	"repro/internal/method"
	"repro/internal/wire"
)

// Shard protocol: the coordinator splits one selection's candidate grid
// into contiguous sub-grids and POSTs each to a worker replica's
// /v1/shard. The contract is bit-identity — merging the shard winners
// with the lowest-index tie-break must equal the single-node answer
// down to the last bit — so nothing numeric travels as decimal JSON:
// x, y and the explicit grid values arrive as base64 little-endian
// float64 bit streams, and the response carries h and cv as hex bit
// patterns (a degenerate shard can legally score +Inf, which plain
// JSON cannot represent at all).
//
// The endpoint admits work through the same bounded pool as
// /v1/select, so a worker's queue depth — exported by GET /v1/load and
// echoed in every shard response — is an honest backpressure signal
// covering coordinator and direct traffic alike.

// ShardRequest is the body of POST /v1/shard.
type ShardRequest struct {
	// XB64/YB64/GridB64 are base64 little-endian float64 bit streams
	// (wire.EncodeFloat64s). The grid is the shard's explicit candidate
	// values — never a (min, max, k) range, whose reconstruction is not
	// bitwise faithful on a sub-interval.
	XB64    string `json:"x_b64"`
	YB64    string `json:"y_b64"`
	GridB64 string `json:"grid_b64"`
	// Method names a shardable row of the method table
	// (internal/method): "sorted", "sorted-parallel", "naive",
	// "twopointer" or "twopointer-parallel"; empty means "sorted".
	Method string `json:"method,omitempty"`
	// Kernel names the kernel function; empty means "epanechnikov".
	Kernel string `json:"kernel,omitempty"`
	// Stable toggles compensated summation; omitted means on.
	Stable *bool `json:"stable,omitempty"`
	// KeepScores returns the shard's full CV vector (bit-encoded).
	KeepScores bool `json:"keep_scores,omitempty"`
	// Offset is the shard's first index in the coordinator's full grid,
	// echoed back so responses are self-describing under hedging.
	Offset int `json:"offset"`
}

// ShardResponse is the body of a successful /v1/shard.
type ShardResponse struct {
	// HBits/CVBits are the winning bandwidth and CV score as hex
	// float64 bit patterns (wire.FormatBits).
	HBits  string `json:"h_bits"`
	CVBits string `json:"cv_bits"`
	// Index is the winner's position within this shard's grid; add
	// Offset for the position in the coordinator's full grid.
	Index  int `json:"index"`
	Offset int `json:"offset"`
	// ScoresB64 carries the shard's CV vector when KeepScores was set.
	ScoresB64 string `json:"scores_b64,omitempty"`
	// QueueDepth is the worker's admission-queue depth at response
	// time — the coordinator's placement signal, piggybacked so a busy
	// cluster needs no extra /v1/load round-trips.
	QueueDepth int `json:"queue_depth"`
	// Worker echoes Config.WorkerLabel.
	Worker    string  `json:"worker,omitempty"`
	ElapsedMs float64 `json:"elapsed_ms"`
}

// LoadResponse is the body of GET /v1/load.
type LoadResponse struct {
	QueueDepth int    `json:"queue_depth"`
	Workers    int    `json:"workers"`
	Draining   bool   `json:"draining"`
	Worker     string `json:"worker,omitempty"`
}

// shardJob is a decoded /v1/shard request, validated down to the
// method row and kernel, so the handler runs it without re-parsing.
type shardJob struct {
	req  *ShardRequest
	x, y []float64
	g    bandwidth.Grid
	row  method.Row
	spec method.Spec
}

// decodeShardRequest parses and validates a /v1/shard body, including
// the (method, kernel) pair, so an unsupported pair is rejected before
// it takes a pool slot. All failures are 4xx by construction.
func decodeShardRequest(body io.Reader, cfg Config) (*shardJob, *httpError) {
	var req ShardRequest
	if herr := decodeJSON(body, &req); herr != nil {
		return nil, herr
	}
	x, err := wire.DecodeFloat64s(req.XB64)
	if err != nil {
		return nil, badRequest("x_b64: %v", err)
	}
	y, err := wire.DecodeFloat64s(req.YB64)
	if err != nil {
		return nil, badRequest("y_b64: %v", err)
	}
	gv, err := wire.DecodeFloat64s(req.GridB64)
	if err != nil {
		return nil, badRequest("grid_b64: %v", err)
	}
	if herr := checkSample(x, y, cfg); herr != nil {
		return nil, herr
	}
	if len(gv) > cfg.MaxGrid {
		return nil, tooLarge("grid of %d points exceeds the limit of %d", len(gv), cfg.MaxGrid)
	}
	g := bandwidth.Grid{H: gv}
	if err := g.Validate(); err != nil {
		return nil, badRequest("grid: %v", err)
	}
	if req.Offset < 0 {
		return nil, badRequest("offset must be non-negative, got %d", req.Offset)
	}
	spec := method.Spec{Kernel: kernel.Epanechnikov, Stability: bandwidth.Compensated}
	if req.Kernel != "" {
		if spec.Kernel, err = kernel.Parse(req.Kernel); err != nil {
			return nil, badRequest("unknown kernel %q", req.Kernel)
		}
	}
	if req.Stable != nil && !*req.Stable {
		spec.Stability = bandwidth.Uncompensated
	}
	row, err := method.Shard(req.Method)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	if err := row.Check(method.CV, spec.Kernel); err != nil {
		return nil, badRequest("%v", err)
	}
	return &shardJob{req: &req, x: x, y: y, g: g, row: row, spec: spec}, nil
}

func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	job, herr := decodeShardRequest(r.Body, s.cfg)
	if herr != nil {
		s.metrics.IncRejected()
		http.Error(w, herr.msg, herr.status)
		return
	}
	req := job.req
	start := time.Now()
	var res bandwidth.Result
	ok := s.runJob(w, r, "shard", func(ctx context.Context) error {
		var err error
		res, err = job.row.CV.Run(ctx, job.x, job.y, job.g, job.spec)
		return err
	})
	if !ok {
		return
	}
	resp := ShardResponse{
		HBits:      wire.FormatBits(res.H),
		CVBits:     wire.FormatBits(res.CV),
		Index:      res.Index,
		Offset:     req.Offset,
		QueueDepth: s.metrics.QueueDepth(),
		Worker:     s.cfg.WorkerLabel,
		ElapsedMs:  float64(time.Since(start)) / float64(time.Millisecond),
	}
	if req.KeepScores {
		resp.ScoresB64 = wire.EncodeFloat64s(res.Scores)
	}
	writeJSON(w, resp)
}

// handleLoad reports the worker's instantaneous admission-queue depth —
// the coordinator's placement signal. It bypasses the pool: a load
// probe that queued behind the very work it is measuring would be
// useless as a backpressure signal.
func (s *Server) handleLoad(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, LoadResponse{
		QueueDepth: s.metrics.QueueDepth(),
		Workers:    s.cfg.Workers,
		Draining:   s.Draining(),
		Worker:     s.cfg.WorkerLabel,
	})
}
