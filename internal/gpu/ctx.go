package gpu

import (
	"fmt"
	"sync"
)

// ThreadCtx is the view one device thread has of the machine: its indices,
// the block's shared memory, the barrier, and the charging interface
// through which the timing model observes the thread's work.
//
// Device code accesses global memory either through Load/Store (bounds
// checked, auto-charged, one element at a time) or through GlobalSlice
// plus explicit Charge* calls — the latter is for device helper routines
// like the iterative QuickSort, which count their operations exactly and
// charge them in bulk rather than paying a method call per element.
type ThreadCtx struct {
	dev   *Device
	attrs KernelAttrs
	cfg   LaunchConfig

	blockIdx  int
	threadIdx int

	shared   []float32
	barrier  *barrier
	sharedMu *sync.Mutex
	races    *raceTracker

	ops         int64
	globalRead  int64 // bytes requested
	globalWrite int64 // bytes requested
	effRead     int64 // effective bus bytes (transaction-expanded)
	effWrite    int64
	constReads  int64
	sharedOps   int64
	barriers    int64
	maxShared   int
	pattern     AccessPattern
}

// AccessPattern declares how a thread's global accesses coalesce across
// its warp. With Coalesced, neighbouring threads touch neighbouring
// addresses and each 4-byte access costs 4 effective bytes; with
// Uncoalesced (per-thread row walks, in-place sorts), every access costs
// a full memory transaction. Device code switches the pattern per phase
// with SetAccessPattern.
type AccessPattern int

const (
	// Coalesced access: warp-neighbour threads hit consecutive addresses.
	Coalesced AccessPattern = iota
	// Uncoalesced access: each 4-byte access occupies a whole transaction.
	Uncoalesced
)

// SetAccessPattern declares the coalescing of subsequent global accesses.
func (tc *ThreadCtx) SetAccessPattern(p AccessPattern) { tc.pattern = p }

// effBytes expands raw element bytes to bus traffic under the current
// pattern, assuming 4-byte accesses.
func (tc *ThreadCtx) effBytes(raw int64) int64 {
	if tc.pattern == Coalesced {
		return raw
	}
	return raw / 4 * int64(tc.dev.props.TransactionBytes)
}

// ThreadIdx returns the thread's index within its block (threadIdx.x).
func (tc *ThreadCtx) ThreadIdx() int { return tc.threadIdx }

// BlockIdx returns the block index (blockIdx.x).
func (tc *ThreadCtx) BlockIdx() int { return tc.blockIdx }

// BlockDim returns the threads per block (blockDim.x).
func (tc *ThreadCtx) BlockDim() int { return tc.cfg.BlockDim }

// GridDim returns the number of blocks (gridDim.x).
func (tc *ThreadCtx) GridDim() int { return tc.cfg.GridDim }

// GlobalID returns blockIdx·blockDim + threadIdx, the flat thread id the
// paper's kernels map to observation indices.
func (tc *ThreadCtx) GlobalID() int { return tc.blockIdx*tc.cfg.BlockDim + tc.threadIdx }

// ChargeOps adds n arithmetic/control operations to the thread's tally.
func (tc *ThreadCtx) ChargeOps(n int64) { tc.ops += n }

// ChargeGlobalRead adds bytes of global-memory read traffic (paired with
// GlobalSlice access), expanded to bus transactions under the current
// access pattern.
func (tc *ThreadCtx) ChargeGlobalRead(bytes int64) {
	tc.globalRead += bytes
	tc.effRead += tc.effBytes(bytes)
}

// ChargeGlobalWrite adds bytes of global-memory write traffic.
func (tc *ThreadCtx) ChargeGlobalWrite(bytes int64) {
	tc.globalWrite += bytes
	tc.effWrite += tc.effBytes(bytes)
}

// Load reads element i of buffer b, charging one op and four bytes of
// global read traffic. Out-of-bounds access faults the kernel, as on
// hardware.
func (tc *ThreadCtx) Load(b Buffer, i int) float32 {
	st := tc.dev.lookup(b)
	if st == nil {
		panic("device read through invalid buffer handle")
	}
	if i < 0 || i >= st.elems {
		panic(fmt.Sprintf("device read out of bounds: %s[%d] (len %d)", st.label, i, st.elems))
	}
	tc.ops++
	tc.globalRead += 4
	tc.effRead += tc.effBytes(4)
	return st.data[i]
}

// Store writes element i of buffer b, charging one op and four bytes of
// global write traffic.
func (tc *ThreadCtx) Store(b Buffer, i int, v float32) {
	st := tc.dev.lookup(b)
	if st == nil {
		panic("device write through invalid buffer handle")
	}
	if i < 0 || i >= st.elems {
		panic(fmt.Sprintf("device write out of bounds: %s[%d] (len %d)", st.label, i, st.elems))
	}
	tc.ops++
	tc.globalWrite += 4
	tc.effWrite += tc.effBytes(4)
	st.data[i] = v
}

// GlobalSlice returns a direct view of buffer elements [off, off+n).
// No charging happens; the caller must account its traffic with
// ChargeGlobalRead/ChargeGlobalWrite/ChargeOps. Used by device helpers
// (sorts, bulk fills) whose exact operation counts are cheaper to tally in
// aggregate.
func (tc *ThreadCtx) GlobalSlice(b Buffer, off, n int) []float32 {
	st := tc.dev.lookup(b)
	if st == nil {
		panic("device slice through invalid buffer handle")
	}
	if off < 0 || n < 0 || off+n > st.elems {
		panic(fmt.Sprintf("device slice out of bounds: %s[%d:%d] (len %d)", st.label, off, off+n, st.elems))
	}
	return st.data[off : off+n]
}

// Const reads element i of a constant symbol through the constant cache:
// one op, one constant read, no global traffic.
func (tc *ThreadCtx) Const(sym *ConstSymbol, i int) float32 {
	if i < 0 || i >= len(sym.data) {
		panic(fmt.Sprintf("constant read out of bounds: %s[%d] (len %d)", sym.name, i, len(sym.data)))
	}
	tc.ops++
	tc.constReads++
	return sym.data[i]
}

// SharedLoad reads shared-memory element i. In the concurrent engine a
// read of an index another thread wrote since the last barrier is a data
// race and faults the kernel — the simulator's shared-memory race
// detector.
func (tc *ThreadCtx) SharedLoad(i int) float32 {
	if i < 0 || i >= len(tc.shared) {
		panic(fmt.Sprintf("shared read out of bounds: [%d] (len %d)", i, len(tc.shared)))
	}
	tc.ops++
	tc.sharedOps++
	if (i+1)*4 > tc.maxShared {
		tc.maxShared = (i + 1) * 4
	}
	if tc.races != nil {
		tc.races.checkRead(tc.barriers, i, tc.threadIdx)
	}
	return tc.shared[i]
}

// SharedStore writes shared-memory element i. Between barriers each index
// must be written by at most one thread; the concurrent engine's race
// detector faults the kernel otherwise.
func (tc *ThreadCtx) SharedStore(i int, v float32) {
	if i < 0 || i >= len(tc.shared) {
		panic(fmt.Sprintf("shared write out of bounds: [%d] (len %d)", i, len(tc.shared)))
	}
	tc.ops++
	tc.sharedOps++
	if (i+1)*4 > tc.maxShared {
		tc.maxShared = (i + 1) * 4
	}
	if tc.races != nil {
		tc.races.recordWrite(tc.barriers, i, tc.threadIdx)
	}
	tc.shared[i] = v
}

// AtomicAdd atomically adds v to buffer element i and returns the old
// value (atomicAdd). Charged as one op plus a read-modify-write of the
// element. The device serialises atomics to the same address; the
// simulator serialises all atomics with one lock, which is safe and only
// pessimistic about unrelated addresses.
func (tc *ThreadCtx) AtomicAdd(b Buffer, i int, v float32) float32 {
	st := tc.dev.lookup(b)
	if st == nil {
		panic("device atomic through invalid buffer handle")
	}
	if i < 0 || i >= st.elems {
		panic(fmt.Sprintf("device atomic out of bounds: %s[%d] (len %d)", st.label, i, st.elems))
	}
	tc.ops += 2
	tc.globalRead += 4
	tc.globalWrite += 4
	tc.effRead += tc.effBytes(4)
	tc.effWrite += tc.effBytes(4)
	tc.dev.atomicMu.Lock()
	old := st.data[i]
	st.data[i] = old + v
	tc.dev.atomicMu.Unlock()
	return old
}

// SyncThreads blocks until every live thread in the block has arrived —
// __syncthreads. Calling it from a kernel that did not declare UsesBarrier
// faults the kernel (the sequential engine cannot honour it).
func (tc *ThreadCtx) SyncThreads() {
	if tc.barrier == nil {
		panic(ErrBarrierUse)
	}
	tc.barriers++
	tc.ops++
	tc.barrier.await()
}

// raceTracker detects shared-memory data races within a block in the
// concurrent engine: between two barriers, an index may be written by at
// most one thread, and may not be read by a thread other than its writer
// in the same inter-barrier phase. Hardware makes such races undefined
// behaviour; the simulator makes them a deterministic kernel fault.
type raceTracker struct {
	mu      sync.Mutex
	writers map[int64]int // (phase, index) → writer thread
}

func newRaceTracker() *raceTracker {
	return &raceTracker{writers: make(map[int64]int)}
}

func raceKey(phase int64, idx int) int64 { return phase<<32 | int64(idx) }

func (r *raceTracker) recordWrite(phase int64, idx, thread int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := raceKey(phase, idx)
	if prev, ok := r.writers[key]; ok && prev != thread {
		panic(fmt.Sprintf("shared memory write-write race on index %d between threads %d and %d (no barrier between writes)", idx, prev, thread))
	}
	r.writers[key] = thread
}

func (r *raceTracker) checkRead(phase int64, idx, thread int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.writers[raceKey(phase, idx)]; ok && prev != thread {
		panic(fmt.Sprintf("shared memory read-write race on index %d: thread %d reads a value thread %d wrote with no barrier in between", idx, thread, prev))
	}
}
