package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

func loadSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesProgram holds BENCHMARK.json and the program's tables
// to the same workloads, metrics, units and open-loop rates.
func TestSpecMatchesProgram(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
		if rate := fmt.Sprintf("open loop %g rps", workloads[i].openRPS); !strings.Contains(w.Why, rate) {
			t.Errorf("workload %s: why %q does not state %q", w.Name, w.Why, rate)
		}
	}
	var e2e, layer []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	if fmt.Sprint(e2e) != fmt.Sprint(endToEnd) {
		t.Errorf("end_to_end\n BENCHMARK.json %v\n program        %v", e2e, endToEnd)
	}
	if fmt.Sprint(layer) != fmt.Sprint(perLayer) {
		t.Errorf("per_layer\n BENCHMARK.json %v\n program        %v", layer, perLayer)
	}
}

// runOutput runs one workload briefly through the command-line entry
// point's output path and returns the parsed last line.
func runOutput(t *testing.T, o options) (*result, summary) {
	t.Helper()
	res, err := runBench(context.Background(), o)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", o.w.name, o.trace, err)
	}
	var out bytes.Buffer
	if err := writeResult(&out, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var s summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatal(err)
	}
	return res, s
}

func shortOptions(t *testing.T, w workload, seed int64, trace bool) options {
	return options{w: w, seed: seed, seconds: 2 * time.Second, trace: trace, spanDir: t.TempDir()}
}

// TestShortRunsEmitEveryMetric runs every workload briefly, untraced and
// traced, and checks that the last line names every metric of
// BENCHMARK.json with its unit, that every answer was right, and that the
// workspace pool balances.
func TestShortRunsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the servers under load")
	}
	spec := loadSpec(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, s := runOutput(t, shortOptions(t, w, 7, trace))
			want := map[string]string{}
			if trace {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(s.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(s.Metrics), len(want))
			}
			for name, unit := range want {
				if got, ok := s.Metrics[name]; !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, name, got, unit)
				}
			}
			if !s.Correct || s.Failed != 0 || s.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d, checks %+v", w.name, trace, s.Correct, s.Attempted, s.Failed, res.checks)
			}
			if trace && s.Metrics["bandwidth.pool_balance"].Value != 0 {
				t.Errorf("%s: bandwidth.pool_balance = %v, want 0", w.name, s.Metrics["bandwidth.pool_balance"].Value)
			}
			if trace {
				if _, err := os.Stat(res.spanFile); err != nil {
					t.Errorf("%s: span file: %v", w.name, err)
				}
			}
		}
	}
}

// TestSecondSeedSameMetrics: a held-out seed gives other inputs and the
// same metric names.
func TestSecondSeedSameMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the servers under load")
	}
	w, _ := lookupWorkload("select-small")
	names := func(seed int64) []string {
		_, s := runOutput(t, shortOptions(t, w, seed, false))
		var out []string
		for name := range s.Metrics {
			out = append(out, name)
		}
		sort.Strings(out)
		return out
	}
	if a, b := names(1), names(2); fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("seed 1 metrics %v, seed 2 metrics %v", a, b)
	}
	if a, b := makeSample(w, 1, 0), makeSample(w, 2, 0); bytes.Equal(a.body, b.body) {
		t.Error("seeds 1 and 2 generated the same sample")
	}
	if a, b := makeSample(w, 1, 0), makeSample(w, 1, 0); !bytes.Equal(a.body, b.body) {
		t.Error("seed 1 generated two different samples")
	}
}

// flipLowBit is a stub kernregd that answers with the low bit of h
// flipped.
func flipLowBit(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		var resp serve.SelectResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
			w.WriteHeader(rec.Code)
			w.Write(rec.Body.Bytes())
			return
		}
		resp.Bandwidth = math.Float64frombits(math.Float64bits(resp.Bandwidth) ^ 1)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp)
	})
}

// TestCorruptedAnswerIsCaught: every answer of the stub is wrong in the
// last bit of h, and every one is counted as failed.
func TestCorruptedAnswerIsCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the servers under load")
	}
	w, _ := lookupWorkload("select-small")
	o := shortOptions(t, w, 3, false)
	o.seconds = time.Second
	o.wrap = flipLowBit
	res, s := runOutput(t, o)
	if s.Correct || s.Attempted == 0 || s.Failed != s.Attempted {
		t.Errorf("correct=%v attempted=%d failed=%d, want every request failed", s.Correct, s.Attempted, s.Failed)
	}
	if code := report(io.Discard, io.Discard, res); code == 0 {
		t.Error("exit code 0 for a run with wrong answers")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v, %v; want 1, 4", q1, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	ix := indexSpans([]span{
		{Trace: 1, ID: 1, Name: "coord.select", Start: 0, End: 100},
		{Trace: 1, ID: 2, Parent: 1, Name: "coord.shard", Start: 10, End: 60},
		{Trace: 1, ID: 3, Parent: 1, Name: "coord.shard", Start: 20, End: 70},
		{Trace: 1, ID: 4, Parent: 1, Name: "coord.probe", Start: 90, End: 120},
	})
	// Covered: [10, 70) and [90, 100) → 70 of 100.
	if got := ix.selfTime(ix.roots[0]); got != 30 {
		t.Errorf("self time = %v, want 30ns", got)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	cases := []struct {
		name        string
		cur         []float64
		lowerBetter bool
		want        string
	}{
		{"same", shift(1), true, "unchanged"},
		{"faster", shift(0.8), true, "improved"},
		{"slower within bound", shift(1.05), true, "unchanged"},
		{"slower beyond bound", shift(1.2), true, "regressed"},
		{"more throughput", shift(1.2), false, "improved"},
		{"noisy", []float64{50, 150, 60, 140, 100, 55, 145, 100, 70, 130}, true, "unresolved"},
	}
	for _, c := range cases {
		if got, _ := verdict(base, c.cur, 0.1, c.lowerBetter); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareReadsRunSets feeds compare two run sets in the format the
// benchmark prints.
func TestCompareReadsRunSets(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale float64) string {
		var b strings.Builder
		for i := 0; i < 10; i++ {
			res := newResult(options{w: workloads[0], seed: int64(i), seconds: time.Second})
			for _, d := range endToEnd {
				res.metrics[d.name] = scale * (100 + float64(i%3))
			}
			var out bytes.Buffer
			if err := writeResult(&out, res); err != nil {
				t.Fatal(err)
			}
			b.WriteString("a line that is not a run record\n")
			b.Write(out.Bytes())
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	old, cur := write("old.jsonl", 1), write("new.jsonl", 0.5)
	var out, errOut bytes.Buffer
	if code := cli([]string{"compare", "--bench", filepath.Join("..", "BENCHMARK.json"), old, cur}, &out, &errOut); code != 0 {
		t.Fatalf("compare exit %d: %s", code, errOut.String())
	}
	row := strings.SplitN(out.String(), "\n", 2)[0]
	if !strings.HasPrefix(row, workloads[0].name+": ") || !strings.Contains(row, "latency_p50_ms 101 [100, 102] -> 50.5") {
		t.Errorf("unexpected row %q", row)
	}
	if !strings.Contains(row, "throughput_rps") || !strings.Contains(row, "regressed") || !strings.Contains(row, "improved") {
		t.Errorf("row %q lacks a regressed throughput and improved latencies", row)
	}
}
