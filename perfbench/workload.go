package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/data"
	"repro/internal/serve"
	"repro/kernreg"
)

// workload is one traffic mix. Every request is a POST /v1/select with
// "method": "twopointer" on a sample from the paper's DGP.
type workload struct {
	name string
	// coord routes the traffic through kerncoord over two kernregd
	// replicas; otherwise one kernregd serves it.
	coord bool
	n, k  int
	// pool is how many distinct samples a kernregd workload cycles
	// through. kernregd keeps no state between requests, so a repeated
	// sample costs it exactly what a new one would; the pool bounds the
	// reference answers and the memory the inputs take.
	pool int
	// fresh is how many never-sent samples coord-mixed generates before
	// timing starts; any beyond that are generated on demand.
	fresh int
	// warmup is the number of requests each set-up sends before it
	// counts as done.
	warmup int
	// openRPS is the open-loop phase's fixed arrival rate, about 60% of
	// the closed-loop throughput_rps measured on 2 cores at the commit
	// that added the benchmark.
	openRPS float64
}

// repeatEvery makes every fourth coord-mixed request repeat an earlier
// sample, so a quarter of the requests are designed cache hits.
const repeatEvery = 4

var workloads = []workload{
	{name: "select-small", n: 256, k: 50, pool: 2048, warmup: 64, openRPS: 750},
	{name: "select-large", n: 2000, k: 50, pool: 64, warmup: 8, openRPS: 20},
	{name: "coord-mixed", coord: true, n: 2000, k: 1024, fresh: 320, warmup: 8, openRPS: 10},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sample is one generated regression sample and its request body.
type sample struct {
	idx  int
	x, y []float64
	body []byte
}

// sampleSeed derives sample idx's generator seed from the run seed
// (splitmix64), so every sample is fixed by (seed, idx) alone.
func sampleSeed(seed int64, idx int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(int64(idx))
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z >> 1)
}

func makeSample(w workload, seed int64, idx int) *sample {
	d := data.GeneratePaper(w.n, sampleSeed(seed, idx))
	// kerncoord accepts the same body: it decodes x, y, method and
	// grid_size into its own request type.
	body, err := json.Marshal(serve.SelectRequest{X: d.X, Y: d.Y, Method: "twopointer", GridSize: w.k})
	if err != nil {
		panic(fmt.Sprintf("perfbench: encoding a finite sample: %v", err))
	}
	return &sample{idx: idx, x: d.X, y: d.Y, body: body}
}

// source hands out the samples a run sends. kernregd workloads cycle
// their pool. coord-mixed sends a fresh sample three times in four and
// the fourth time repeats a sample whose answer has already come back,
// so that request must be served from the coordinator's cache.
type source struct {
	w    workload
	seed int64
	pool []*sample // kernregd workloads
	warm []*sample // warm-up samples; idx -1, -2, …

	mu     sync.Mutex
	seq    int
	fresh  []*sample // coord-mixed; fresh[i].idx == i
	issued int       // fresh samples handed out so far
	done   []int     // fresh (or warm-up) samples answered, oldest first
	rng    *rand.Rand
}

// recentRepeats bounds how far back a repeat reaches, well inside the
// coordinator's 1024-entry cache.
const recentRepeats = 256

func newSource(w workload, seed int64) *source {
	s := &source{w: w, seed: seed, rng: rand.New(rand.NewSource(seed ^ 0x5eed))}
	s.pool = generate(w, seed, 0, w.pool)
	s.fresh = generate(w, seed, 0, w.fresh)
	warm := w.warmup
	if w.pool > 0 {
		warm = 0 // warm-up cycles the pool
	}
	for i := 0; i < warm; i++ {
		s.warm = append(s.warm, makeSample(w, seed, -1-i))
	}
	return s
}

// generate makes samples first … first+count-1 on every CPU.
func generate(w workload, seed int64, first, count int) []*sample {
	out := make([]*sample, count)
	parallel(count, func(i int) { out[i] = makeSample(w, seed, first+i) })
	return out
}

// parallel runs fn(0) … fn(count-1) on runtime.NumCPU goroutines and
// waits for them.
func parallel(count int, fn func(i int)) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	next := 0
	for g := 0; g < runtime.NumCPU(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= count {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// warmups returns the samples a set-up sends.
func (s *source) warmups() []*sample {
	if s.w.pool > 0 {
		out := make([]*sample, s.w.warmup)
		for i := range out {
			out[i] = s.pool[i%len(s.pool)]
		}
		return out
	}
	return s.warm
}

// next returns the sample to send and whether it is a designed repeat.
func (s *source) next() (*sample, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.seq
	s.seq++
	if s.w.pool > 0 {
		return s.pool[j%len(s.pool)], false
	}
	if j%repeatEvery == repeatEvery-1 && len(s.done) > 0 {
		recent := s.done[max(0, len(s.done)-recentRepeats):]
		return s.lookup(recent[s.rng.Intn(len(recent))]), true
	}
	i := s.issued
	s.issued++
	if i == len(s.fresh) {
		// Past the pre-generated samples: generating costs about a
		// millisecond, small next to a coord-mixed request.
		s.fresh = append(s.fresh, makeSample(s.w, s.seed, i))
	}
	return s.fresh[i], false
}

// answered records that a fresh sample's answer came back, making it a
// candidate for later repeats.
func (s *source) answered(smp *sample, repeat bool) {
	if s.w.pool > 0 || repeat {
		return
	}
	s.mu.Lock()
	s.done = append(s.done, smp.idx)
	s.mu.Unlock()
}

// resetRepeats restarts the repeat bookkeeping: only samples answered
// from here on can be repeated.
func (s *source) resetRepeats() {
	s.mu.Lock()
	s.seq = 0
	s.done = nil
	s.mu.Unlock()
}

func (s *source) lookup(idx int) *sample {
	switch {
	case idx < 0:
		return s.warm[-1-idx]
	case s.w.pool > 0:
		return s.pool[idx]
	default:
		return s.fresh[idx]
	}
}

// answer is the part of a selection the check compares bit for bit.
type answer struct {
	hBits uint64
	index int
}

func answerOf(h float64, index int) answer { return answer{math.Float64bits(h), index} }

func selectOptions(w workload) []kernreg.Option {
	return []kernreg.Option{kernreg.WithMethod(kernreg.MethodTwoPointer), kernreg.GridSize(w.k)}
}

// references computes kernreg.SelectBandwidth's answer for every sample
// in smps not yet in refs, on every CPU.
func references(w workload, smps []*sample, refs map[int]answer) error {
	var todo []*sample
	seen := map[int]bool{}
	for _, smp := range smps {
		if _, ok := refs[smp.idx]; !ok && !seen[smp.idx] {
			seen[smp.idx] = true
			todo = append(todo, smp)
		}
	}
	got := make([]answer, len(todo))
	errs := make([]error, len(todo))
	parallel(len(todo), func(i int) {
		sel, err := kernreg.SelectBandwidth(todo[i].x, todo[i].y, selectOptions(w)...)
		got[i], errs[i] = answerOf(sel.Bandwidth, sel.Index), err
	})
	for i, smp := range todo {
		if errs[i] != nil {
			return fmt.Errorf("reference selection for sample %d: %w", smp.idx, errs[i])
		}
		refs[smp.idx] = got[i]
	}
	return nil
}
