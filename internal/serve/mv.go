package serve

import (
	"context"
	"math"
	"net/http"
	"time"

	"repro/kernreg"
)

// Multivariate surface: "method": "mv" selects a bandwidth vector for a
// regression of y on the rows of x_matrix with a product Epanechnikov
// kernel — mesh=true runs the fast-sum-updating mesh search over the
// full Cartesian grid, mesh=false coordinate descent. The method has
// its own admission limits: the objective is Θ(n·k·d) per sweep but the
// mesh multiplies sweeps by Π k_d, so the cell count is capped
// independently of grid_size.

const (
	// mvMaxN caps observations for the mv method, matching the fleet
	// limit — every sweep is host CPU work.
	mvMaxN = 4096
	// mvMaxDim caps the regressor dimensionality; beyond a handful of
	// dimensions the product-kernel CV surface is all boundary and the
	// paper's grid approach stops being meaningful.
	mvMaxDim = 8
	// mvMaxMeshCells caps the Cartesian product a single mesh request
	// can ask for (k^d grows without bound long before grid_size hits
	// MaxGrid).
	mvMaxMeshCells = 1 << 14
	// defaultMVGrid matches kernreg.SelectBandwidthMV's default per-
	// dimension candidate count.
	defaultMVGrid = 20
)

// mvRowCap is the effective mv row limit: mvMaxN, or MaxN when that is
// lower, so a server's -max-n bounds mv work like every other method's.
func (c Config) mvRowCap() int { return min(mvMaxN, c.MaxN) }

// checkMVSelect validates a "method": "mv" request. All failures are
// 4xx by construction.
func checkMVSelect(req *SelectRequest, cfg Config) *httpError {
	if len(req.X) != 0 {
		return badRequest("method \"mv\" takes x_matrix, not x")
	}
	if req.Kernel != "" && req.Kernel != "epanechnikov" {
		return badRequest("method \"mv\" supports only the epanechnikov kernel, got %q", req.Kernel)
	}
	if req.GridMin != 0 || req.GridMax != 0 {
		return badRequest("grid_min and grid_max are not supported for method \"mv\" (grids are built per dimension)")
	}
	if req.KeepScores {
		return badRequest("keep_scores is not supported for method \"mv\"")
	}
	if req.Stable != nil {
		return badRequest("stable is not supported for method \"mv\"")
	}
	if req.Bags != nil || req.BagSize != nil || req.Seed != nil {
		return badRequest("bags, bag_size and seed require \"method\": \"bagged\", got %q", req.Method)
	}
	if req.Aggregation != "" {
		return badRequest("aggregation requires \"method\": \"bagged\", got %q", req.Method)
	}
	n := len(req.XMatrix)
	if n != len(req.Y) {
		return badRequest("x_matrix has %d rows, y has %d", n, len(req.Y))
	}
	if n < 2 {
		return badRequest("need at least 2 observations, have %d", n)
	}
	if maxN := cfg.mvRowCap(); n > maxN {
		return tooLarge("n=%d exceeds the mv limit of %d observations", n, maxN)
	}
	d := len(req.XMatrix[0])
	if d == 0 {
		return badRequest("x_matrix rows must have at least 1 coordinate")
	}
	if d > mvMaxDim {
		return tooLarge("dimension %d exceeds the mv limit of %d", d, mvMaxDim)
	}
	for i, row := range req.XMatrix {
		if len(row) != d {
			return badRequest("x_matrix row %d has %d coordinates, row 0 has %d", i, len(row), d)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return badRequest("x_matrix[%d][%d] is not finite", i, j)
			}
		}
	}
	for i, v := range req.Y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return badRequest("y[%d] is not finite", i)
		}
	}
	k := req.GridSize
	switch {
	case k < 0:
		return badRequest("grid_size must be positive, got %d", k)
	case k > cfg.MaxGrid:
		return tooLarge("grid_size=%d exceeds the limit of %d", k, cfg.MaxGrid)
	case k == 0:
		k = defaultMVGrid
	}
	if req.Mesh {
		cells := 1
		for j := 0; j < d; j++ {
			if cells > mvMaxMeshCells/k {
				return tooLarge("mesh of %d^%d cells exceeds the limit of %d", k, d, mvMaxMeshCells)
			}
			cells *= k
		}
	}
	return nil
}

// handleMVSelect runs a "method": "mv" selection. Grid construction
// happens inside the pool job — a degenerate sample (zero-domain
// dimension) is the client's data and maps to 400 like every other
// selector rejection.
func (s *Server) handleMVSelect(w http.ResponseWriter, r *http.Request, req *SelectRequest) {
	start := time.Now()
	var sel kernreg.MVSelection
	ok := s.runJob(w, r, "select", func(ctx context.Context) error {
		var err error
		sel, err = kernreg.SelectBandwidthMVContext(ctx, req.XMatrix, req.Y, req.GridSize, req.Mesh)
		return err
	})
	if !ok {
		return
	}
	writeJSON(w, SelectResponse{
		CV:         finitePtr(sel.CV),
		Index:      -1,
		Method:     "mv",
		N:          len(req.XMatrix),
		Bandwidths: sel.Bandwidths,
		Evals:      sel.Evals,
		Sweeps:     sel.Sweeps,
		ElapsedMs:  float64(time.Since(start)) / float64(time.Millisecond),
	})
}
