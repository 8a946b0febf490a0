package conformance

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/coord"
	"repro/internal/kernel"
	"repro/internal/serve"
)

// singleNode runs the method directly through internal/bandwidth — the
// reference the sharded coordinator must reproduce bit for bit.
func singleNode(t *testing.T, method string, x, y []float64, g bandwidth.Grid) bandwidth.Result {
	t.Helper()
	ctx := context.Background()
	var (
		res bandwidth.Result
		err error
	)
	switch method {
	case "sorted":
		res, err = bandwidth.SortedGridSearchKernelStabilityContext(ctx, x, y, g, kernel.Epanechnikov, bandwidth.Compensated)
	case "twopointer":
		res, err = bandwidth.TwoPointerGridSearchKernelStabilityContext(ctx, x, y, g, kernel.Epanechnikov, bandwidth.Compensated)
	case "naive":
		res, err = bandwidth.NaiveGridSearchContext(ctx, x, y, g, kernel.Epanechnikov)
	default:
		t.Fatalf("no reference for %q", method)
	}
	if err != nil {
		t.Fatalf("single-node %s: %v", method, err)
	}
	return res
}

// TestCoordShardedBitIdentical sweeps the full corpus through the
// shared 3-replica cluster for every shardable exact method and
// requires the merged result — bandwidth, CV, winning index and the
// whole score vector — to be bitwise equal to a single node's.
func TestCoordShardedBitIdentical(t *testing.T) {
	c, err := sharedCoordinator()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Corpus() {
		if d.Heavy && testing.Short() {
			continue
		}
		g, err := bandwidth.NewGrid(d.GridMin, d.GridMax, d.K)
		if err != nil {
			t.Fatalf("%s: grid: %v", d.Name, err)
		}
		for _, method := range []string{"sorted", "twopointer", "naive"} {
			want := singleNode(t, method, d.X, d.Y, g)
			got, err := c.Select(context.Background(), coord.Job{
				X: d.X, Y: d.Y, Grid: g, Method: method, KeepScores: true,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", d.Name, method, err)
			}
			label := fmt.Sprintf("%s/%s", d.Name, method)
			if math.Float64bits(got.H) != math.Float64bits(want.H) {
				t.Errorf("%s: H bits %016x, want %016x", label, math.Float64bits(got.H), math.Float64bits(want.H))
			}
			if math.Float64bits(got.CV) != math.Float64bits(want.CV) {
				t.Errorf("%s: CV bits %016x, want %016x", label, math.Float64bits(got.CV), math.Float64bits(want.CV))
			}
			if got.Index != want.Index {
				t.Errorf("%s: index %d, want %d", label, got.Index, want.Index)
			}
			if len(got.Scores) != len(want.Scores) {
				t.Fatalf("%s: %d scores, want %d", label, len(got.Scores), len(want.Scores))
			}
			for i := range want.Scores {
				if math.Float64bits(got.Scores[i]) != math.Float64bits(want.Scores[i]) {
					t.Errorf("%s: scores[%d] bits %016x, want %016x", label, i,
						math.Float64bits(got.Scores[i]), math.Float64bits(want.Scores[i]))
				}
			}
		}
	}
}

// TestCoordCacheReplay runs a cache-enabled cluster over part of the
// corpus twice: the second pass must be all cache hits, bit-identical
// to the first, with the counters agreeing.
func TestCoordCacheReplay(t *testing.T) {
	var workers []*coord.Worker
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("replay%d", i)
		srv := serve.New(serve.Config{Workers: 2, WorkerLabel: name})
		workers = append(workers, coord.InProcess(name, srv.Handler()))
	}
	c, err := coord.New(coord.Config{Workers: workers, Shards: 3, CacheEntries: 128})
	if err != nil {
		t.Fatal(err)
	}
	var jobs []coord.Job
	var firsts []coord.Result
	for _, d := range Corpus() {
		if d.Heavy {
			continue
		}
		g, err := bandwidth.NewGrid(d.GridMin, d.GridMax, d.K)
		if err != nil {
			t.Fatal(err)
		}
		job := coord.Job{X: d.X, Y: d.Y, Grid: g, Method: "twopointer", KeepScores: true}
		res, err := c.Select(context.Background(), job)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if res.CacheHit {
			t.Fatalf("%s: cold pass reported a cache hit", d.Name)
		}
		jobs = append(jobs, job)
		firsts = append(firsts, res)
	}
	for i, job := range jobs {
		res, err := c.Select(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		if !res.CacheHit {
			t.Fatalf("replay %d missed the cache", i)
		}
		if math.Float64bits(res.H) != math.Float64bits(firsts[i].H) ||
			math.Float64bits(res.CV) != math.Float64bits(firsts[i].CV) ||
			res.Index != firsts[i].Index {
			t.Fatalf("replay %d differs from the computed result", i)
		}
		for j := range firsts[i].Scores {
			if math.Float64bits(res.Scores[j]) != math.Float64bits(firsts[i].Scores[j]) {
				t.Fatalf("replay %d: scores[%d] differ", i, j)
			}
		}
	}
}
