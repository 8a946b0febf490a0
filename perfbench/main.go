// Command perfbench is the repository's load benchmark. It drives an
// in-process kernregd (serve.New behind a loopback listener) or kerncoord
// (coord.NewServer over two loopback kernregd replicas) with a closed-loop
// and an open-loop phase, checks every answer bit for bit against a
// reference selection, and prints the end-to-end metrics — or, with
// --trace 1, the per-layer breakdown — as the last line of its output.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload select-small --seed 1 --seconds 24 --trace 0
//	bash perfbench/run.sh compare old-runs.jsonl new-runs.jsonl
//
// See README.md for the workloads, the metrics and the output format.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareCmd(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 24, "seconds of measurement")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	spanDir := fs.String("spans", filepath.Join(".bench_build", "spans"), "directory for the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0 or 1\n", strings.Join(names, ", "))
		return 2
	}
	res, err := runBench(context.Background(), options{
		w:       w,
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		spanDir: *spanDir,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return report(stdout, stderr, res)
}

// report prints res and returns the exit code: 1 unless every answer was
// right and every check held.
func report(stdout, stderr io.Writer, res *result) int {
	if err := writeResult(stdout, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if res.correct() {
		return 0
	}
	for _, c := range res.checks {
		if !c.OK {
			fmt.Fprintf(stderr, "perfbench: check %s failed: %s\n", c.Name, c.Detail)
		}
	}
	return 1
}

// detailMetric is one metric in the detail line.
type detailMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Kind is "measured" for every metric: nothing here is modelled or
	// simulated.
	Kind    string `json:"kind"`
	Samples int    `json:"samples,omitempty"`
	// NotApplicable marks a per-layer metric for a layer this workload
	// does not run; its value is 0.
	NotApplicable bool `json:"not_applicable,omitempty"`
}

// detail is the next-to-last output line: the whole record of a run,
// which compare reads back.
type detail struct {
	Perfbench int                     `json:"perfbench"` // format version
	Workload  string                  `json:"workload"`
	Seed      int64                   `json:"seed"`
	Trace     bool                    `json:"trace"`
	Seconds   float64                 `json:"seconds"`
	Host      hostInfo                `json:"host"`
	Metrics   map[string]detailMetric `json:"metrics"`
	Notes     map[string]float64      `json:"notes,omitempty"`
	Checks    []check                 `json:"checks"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Spans     string                  `json:"spans,omitempty"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last output line: whether every answer was right, the
// operations attempted and failed, and the metrics by name.
type summary struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

func writeResult(out io.Writer, res *result) error {
	defs := endToEnd
	if res.opts.trace {
		defs = perLayer
	}
	d := detail{
		Perfbench: 1,
		Workload:  res.opts.w.name,
		Seed:      res.opts.seed,
		Trace:     res.opts.trace,
		Seconds:   res.opts.seconds.Seconds(),
		Host:      res.host,
		Metrics:   map[string]detailMetric{},
		Notes:     res.notes,
		Checks:    res.checks,
		Attempted: res.attempted,
		Failed:    res.failed,
		Spans:     res.spanFile,
	}
	s := summary{Correct: res.correct(), Attempted: res.attempted, Failed: res.failed, Metrics: map[string]valueUnit{}}
	for _, def := range defs {
		v, ok := res.metrics[def.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", def.name)
		}
		d.Metrics[def.name] = detailMetric{Value: v, Unit: def.unit, Kind: "measured", Samples: res.samples[def.name], NotApplicable: res.na[def.name]}
		s.Metrics[def.name] = valueUnit{Value: v, Unit: def.unit}
	}
	enc := json.NewEncoder(out)
	if err := enc.Encode(d); err != nil {
		return err
	}
	return enc.Encode(s)
}
