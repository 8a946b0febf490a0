package bandwidth

import (
	"sync"
	"sync/atomic"

	"repro/internal/sortx"
)

// Pooled scratch workspaces for the two-pointer sweeps. A selection at
// sample size n and grid size k needs seven O(n) buffers (the globally
// sorted copies of X and Y plus the per-observation neighbour buffers,
// which double as the window sweep's moment buffers) and two O(k)
// buffers (the score accumulator and, for the pooled
// kernreg fast path, the grid itself). Allocating them per call makes
// every selection pay several make()s; under kernregd's steady traffic
// the same sizes recur constantly, so the workspaces are recycled
// through sync.Pools keyed by capacity class and the hot path allocates
// nothing after warm-up (the root benchmark's pooled variant proves it
// with b.ReportAllocs).

// wsClasses is the number of power-of-two capacity classes. Class c
// holds workspaces whose sample buffers have capacity 1<<c, so 48
// classes cover any slice that fits in memory.
const wsClasses = 48

// wsPools holds one sync.Pool per capacity class. Pooling by class
// rather than exact n keeps reuse high under mixed request sizes: a
// workspace sized for 1<<c serves every n in (1<<(c-1), 1<<c].
var wsPools [wsClasses]sync.Pool

// poolHits / poolMisses count Acquire outcomes; poolReleases counts
// Release calls. kernregd exports all three through /metrics so
// allocation behaviour is observable in production, and the serve test
// battery asserts hits+misses == releases at rest — a leaked workspace
// (an Acquire whose path skipped Release) shows up as a widening gap.
var poolHits, poolMisses, poolReleases atomic.Uint64

// PoolStats reports how many workspace acquisitions were served from
// the pool (hits) versus freshly allocated (misses) since process
// start.
func PoolStats() (hits, misses uint64) {
	return poolHits.Load(), poolMisses.Load()
}

// PoolReleases reports how many workspaces have been returned to the
// pools since process start. At rest (no selection in flight) it equals
// hits+misses from PoolStats.
func PoolReleases() uint64 { return poolReleases.Load() }

// capClass returns the pool class for capacity n: the smallest c with
// 1<<c >= n.
func capClass(n int) int {
	c := 0
	for 1<<c < n {
		c++
	}
	return c
}

// Workspace bundles every scratch slice the two-pointer grid searches
// need. Obtain one with AcquireWorkspace and return it with Release;
// all slices are valid only between the two calls. A Workspace is not
// safe for concurrent use — the parallel search acquires one per
// worker.
type Workspace struct {
	// xs, ys are the globally sorted copies of the sample.
	xs, ys []float64
	// delta and yv are the per-observation neighbour buffers (signed
	// distance and Y payload). The window sweep uses them, with absd,
	// su and su2, as its five moment buffers (windowMoments).
	absd, yv, delta, su, su2 []float64
	// scores is the CV accumulator; gridH backs the pooled grid of the
	// zero-allocation kernreg path.
	scores, gridH []float64
	// pos (sorted positions) and num, den (one observation's kernel
	// sums) serve only the per-observation prefix sweeps, which
	// allocate them on first use.
	pos      []int
	num, den []float64
}

// AcquireWorkspace returns a workspace whose sample buffers hold at
// least n elements and whose grid buffers hold at least k, reusing a
// pooled one when available.
func AcquireWorkspace(n, k int) *Workspace {
	c := capClass(n)
	ws, _ := wsPools[c].Get().(*Workspace)
	if ws == nil {
		poolMisses.Add(1)
		m := 1 << c
		// The window sweep's moment buffers need one slot past the
		// sample; xs keeps exactly m, which Release reads back as the
		// class.
		ws = &Workspace{
			xs:    make([]float64, 0, m),
			ys:    make([]float64, 0, m),
			absd:  make([]float64, 0, m+1),
			yv:    make([]float64, 0, m+1),
			delta: make([]float64, 0, m+1),
			su:    make([]float64, 0, m+1),
			su2:   make([]float64, 0, m+1),
		}
	} else {
		poolHits.Add(1)
	}
	if cap(ws.scores) < k {
		ws.scores = make([]float64, 0, k)
	}
	if cap(ws.gridH) < k {
		ws.gridH = make([]float64, 0, k)
	}
	return ws
}

// Release returns the workspace to its capacity-class pool. The caller
// must not use the workspace (or any Result.Scores aliasing it — see
// TwoPointerGridSearchInto) afterwards.
func (ws *Workspace) Release() {
	poolReleases.Add(1)
	wsPools[capClass(cap(ws.xs))].Put(ws)
}

// GridBuf returns a zero-length slice with capacity at least k backed
// by the workspace, for building a pooled Grid via NewGridInto /
// DefaultGridInto.
func (ws *Workspace) GridBuf(k int) []float64 {
	if cap(ws.gridH) < k {
		ws.gridH = make([]float64, 0, k)
	}
	return ws.gridH[:0]
}

// zeroScores returns the workspace's score accumulator sized to k and
// cleared — pooled memory carries the previous request's sums.
func (ws *Workspace) zeroScores(k int) []float64 {
	if cap(ws.scores) < k {
		ws.scores = make([]float64, 0, k)
	}
	s := ws.scores[:k]
	for j := range s {
		s[j] = 0
	}
	return s
}

// windowMoments returns the window sweep's moment buffers, each of
// length n+1. Three alias the neighbour buffers, which the window sweep
// does not otherwise use.
func (ws *Workspace) windowMoments(n int) windowMoments {
	n++
	return windowMoments{y: ws.yv[:n], yu: ws.delta[:n], yu2: ws.absd[:n], u: ws.su[:n], u2: ws.su2[:n]}
}

// sortSample copies x and y into the workspace and co-sorts them by X
// ascending — the single global sort the two-pointer sweep family
// replaces the per-observation sorts with.
func (ws *Workspace) sortSample(x, y []float64) (xs, ys []float64) {
	xs = append(ws.xs[:0], x...)
	ys = append(ws.ys[:0], y...)
	ws.xs, ws.ys = xs, ys
	sortx.QuickSort64(xs, ys)
	return xs, ys
}

// neighbours is sortSample for the per-observation prefix sweeps, which
// visit the observations in their original order: it also records each
// observation's sorted position. X is sorted with the observation
// indices as payload (held in su, exact as float64), so the order is
// the one sortSample gives.
func (ws *Workspace) neighbours(x, y []float64) neighbours {
	n := len(x)
	xs := append(ws.xs[:0], x...)
	idx := ws.su[:n]
	for i := range idx {
		idx[i] = float64(i)
	}
	sortx.QuickSort64(xs, idx)
	if cap(ws.pos) < n {
		ws.pos = make([]int, cap(ws.xs))
	}
	ys, pos := ws.ys[:n], ws.pos[:n]
	for p, f := range idx {
		i := int(f)
		ys[p], pos[i] = y[i], p
	}
	ws.xs, ws.ys = xs, ys
	return neighbours{xs: xs, ys: ys, pos: pos}
}

// sumBufs returns the kernel-sum buffers of the prefix sweeps, sized
// to k.
func (ws *Workspace) sumBufs(k int) (num, den []float64) {
	if cap(ws.num) < k {
		ws.num, ws.den = make([]float64, k), make([]float64, k)
	}
	return ws.num[:k], ws.den[:k]
}
