package main

import (
	"bufio"
	"bytes"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// percentile is the nearest-rank q-quantile (0 < q ≤ 1) of vs; 0 when
// vs is empty.
func percentile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median is the middle value of vs, or the mean of the two middle ones;
// 0 when vs is empty.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartiles of vs the way Python's
// statistics.quantiles(vs, n=4) does (the "exclusive" method).
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeSnap is a reading of the process-wide runtime metrics the
// per-layer breakdown uses.
type runtimeSnap struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
	sched           *metrics.Float64Histogram
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func readRuntime() runtimeSnap {
	ss := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	var r runtimeSnap
	for _, s := range ss {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			r.allocBytes = s.Value.Uint64()
		case metrics.KindFloat64:
			if s.Name == runtimeNames[1] {
				r.gcCPU = s.Value.Float64()
			} else {
				r.totalCPU = s.Value.Float64()
			}
		case metrics.KindFloat64Histogram:
			r.sched = s.Value.Float64Histogram()
		}
	}
	return r
}

// schedP99Ms is the 99th percentile of the scheduling latencies recorded
// between two readings, taken at the upper edge of its bucket.
func schedP99Ms(before, after *metrics.Float64Histogram) float64 {
	if before == nil || after == nil || len(before.Counts) != len(after.Counts) {
		return 0
	}
	counts := make([]uint64, len(after.Counts))
	var total uint64
	for i := range counts {
		counts[i] = after.Counts[i] - before.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			hi := after.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = after.Buckets[i]
			}
			return hi * 1000
		}
	}
	return 0
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		sc := bufio.NewScanner(bytes.NewReader(b))
		for sc.Scan() {
			f := bytes.Fields(sc.Bytes())
			if len(f) >= 2 && string(f[0]) == "VmHWM:" {
				if kb, err := strconv.ParseFloat(string(f[1]), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kB on Linux
}
