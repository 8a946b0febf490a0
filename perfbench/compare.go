package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// compare reads run sets — files holding the standard output of untraced
// runs, one after another — and prints one row per workload. With one set
// it reports each end-to-end metric's median, quartiles and spread against
// its bound. With two (the parent commit's first) it adds the pair win
// rate and a verdict: improved, unchanged, regressed or unresolved.

// benchSpec is the part of BENCHMARK.json compare needs.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	RunSeconds int `json:"run_seconds"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runSet maps workload → metric → values in run order.
type runSet map[string]map[string][]float64

// readRuns collects the untraced runs' detail lines from path.
func readRuns(path string) (runSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	set := runSet{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if !bytes.HasPrefix(line, []byte(`{"perfbench":`)) {
			continue
		}
		var d detail
		if err := json.Unmarshal(line, &d); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if d.Trace {
			continue
		}
		if set[d.Workload] == nil {
			set[d.Workload] = map[string][]float64{}
		}
		for name, m := range d.Metrics {
			set[d.Workload][name] = append(set[d.Workload][name], m.Value)
		}
	}
	return set, sc.Err()
}

func compareCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("bench", "BENCHMARK.json", "the benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 1 || fs.NArg() > 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare [--bench BENCHMARK.json] runs.jsonl [new-runs.jsonl]")
		return 2
	}
	spec, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	var sets []runSet
	for _, p := range fs.Args() {
		s, err := readRuns(p)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		sets = append(sets, s)
	}
	for _, w := range spec.Workloads {
		var cells []string
		for _, m := range spec.EndToEnd {
			old := sets[0][w.Name][m.Name]
			if len(sets) == 1 {
				cells = append(cells, describeSpread(m.Name, old, m.Bound))
				continue
			}
			cells = append(cells, describeChange(m.Name, old, sets[1][w.Name][m.Name], m.Bound, m.Better == "lower"))
		}
		fmt.Fprintf(stdout, "%s: %s\n", w.Name, strings.Join(cells, " | "))
	}
	return 0
}

// spread is the distance between the quartiles as a share of the median.
func spread(vs []float64) float64 {
	q1, q3 := quartiles(vs)
	return ratio(q3-q1, math.Abs(median(vs)))
}

func describeSpread(name string, vs []float64, bound float64) string {
	if len(vs) == 0 {
		return name + " no runs"
	}
	q1, q3 := quartiles(vs)
	return fmt.Sprintf("%s %.4g [%.4g, %.4g] n=%d spread %.3f/bound %.2f", name, median(vs), q1, q3, len(vs), spread(vs), bound)
}

func describeChange(name string, old, cur []float64, bound float64, lowerBetter bool) string {
	if len(old) == 0 || len(cur) == 0 {
		return name + " missing runs"
	}
	v, win := verdict(old, cur, bound, lowerBetter)
	o1, o3 := quartiles(old)
	n1, n3 := quartiles(cur)
	return fmt.Sprintf("%s %.4g [%.4g, %.4g] -> %.4g [%.4g, %.4g] wins %.0f%% %s",
		name, median(old), o1, o3, median(cur), n1, n3, 100*win, v)
}

// verdict applies the rule for claiming a change. Runs pair up in order.
//   - improved: the change wins at least nine pairs in ten (ties count
//     for neither side) and its median beats the parent's by more than
//     the distance between the parent's quartiles;
//   - unresolved: either side's spread exceeds the bound, unless every
//     run of the change beats every run of the parent;
//   - regressed: the change's median is worse than the parent's by more
//     than bound × the parent's median;
//   - unchanged: otherwise.
func verdict(old, cur []float64, bound float64, lowerBetter bool) (string, float64) {
	better := func(a, b float64) bool {
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	pairs := min(len(old), len(cur))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(cur[i], old[i]) {
			wins++
		}
	}
	win := ratio(float64(wins), float64(pairs))
	mo, mc := median(old), median(cur)
	gain := mo - mc // how much better the change is
	if !lowerBetter {
		gain = -gain
	}
	q1, q3 := quartiles(old)
	if win >= 0.9 && gain > q3-q1 {
		return "improved", win
	}
	if spread(old) > bound || spread(cur) > bound {
		allBetter := true
		for _, c := range cur {
			for _, o := range old {
				if !better(c, o) {
					allBetter = false
				}
			}
		}
		if allBetter {
			return "unchanged", win
		}
		return "unresolved", win
	}
	if -gain > bound*math.Abs(mo) {
		return "regressed", win
	}
	return "unchanged", win
}
