// Package method is the one table of bandwidth-selection methods. Each
// row names a method and says, once, which kernels it accepts for each
// objective, whether its grid may be split across kerncoord replicas,
// and which function runs it on an explicit bandwidth.Grid.
//
// Row i is kernreg.Method(i): kernreg's String, ParseMethod and
// dispatch read the table, /v1/shard and kerncoord admit only its
// shardable rows, and the conformance registry's host rows call through
// it. Adding or retiring a method is one row here.
package method

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/bandwidth"
	"repro/internal/core"
	"repro/internal/kernel"
)

// Objective is the criterion a search minimises over the grid.
type Objective int

const (
	// CV is the local-constant (Nadaraya–Watson) leave-one-out CV
	// objective, the paper's.
	CV Objective = iota
	// LocalLinearCV is leave-one-out CV of the local-linear estimator.
	LocalLinearCV
	// AICc is the corrected AIC of Hurvich, Simonoff & Tsai for the
	// local-constant estimator.
	AICc
)

var objectiveNames = [...]string{CV: "local-constant CV", LocalLinearCV: "local-linear CV", AICc: "AICc"}

// String returns the objective's name as it appears in errors.
func (o Objective) String() string { return objectiveNames[o] }

// Spec is what every engine receives besides the data and the grid.
// Each engine reads the fields it needs and ignores the rest.
type Spec struct {
	Kernel    kernel.Kind
	Stability bandwidth.Stability
	// Workers caps the goroutines of sorted-parallel, twopointer and
	// twopointer-parallel; 0 means GOMAXPROCS.
	Workers int
	// KeepScores asks the device pipelines for the score vector; the
	// host engines always return it.
	KeepScores bool
}

// Engine runs one search on an explicit grid.
type Engine func(ctx context.Context, x, y []float64, g bandwidth.Grid, s Spec) (bandwidth.Result, error)

// Search is one objective of a method: the kernels it accepts and the
// engine that runs it. Run is nil for the two methods that kernreg
// runs on its own path (numerical searches a continuum, bagged
// aggregates subsamples); their kernels are still checked here.
type Search struct {
	Kernels []kernel.Kind
	Run     Engine
}

// Row is one method.
type Row struct {
	Name string
	// CV, LocalLinear and AICc are the method's searches, one per
	// Objective; a Search with no kernels is unsupported.
	CV, LocalLinear, AICc Search
	// Shardable means the grid may be split across replicas and the
	// merged shard winners equal the single-node answer bit for bit:
	// each candidate's score depends only on the data, the candidate
	// and the Spec. Only the float64 host CV searches qualify.
	Shardable bool
}

var (
	epanechnikov = []kernel.Kind{kernel.Epanechnikov}
	// prefix are the compact kernels whose weights decompose into
	// running prefix sums (the paper's footnote 1).
	prefix = []kernel.Kind{kernel.Epanechnikov, kernel.Uniform, kernel.Triangular}
	every  = kernel.Kinds()
)

// table is indexed by kernreg.Method.
var table = [...]Row{
	{Name: "sorted", Shardable: true,
		CV:          Search{prefix, sorted},
		LocalLinear: Search{epanechnikov, sortedLocalLinear},
		AICc:        Search{epanechnikov, sortedAICc}},
	{Name: "sorted-parallel", Shardable: true,
		CV: Search{epanechnikov, sortedParallel}},
	{Name: "sorted-f32",
		CV: Search{epanechnikov, sortedF32}},
	{Name: "naive", Shardable: true,
		CV:          Search{every, naive},
		LocalLinear: Search{every, naiveLocalLinear},
		AICc:        Search{every, naiveAICc}},
	{Name: "numerical",
		CV: Search{Kernels: every}},
	{Name: "gpu",
		CV: Search{prefix, gpu}},
	{Name: "gpu-tiled",
		CV: Search{epanechnikov, gpuTiled}},
	{Name: "twopointer", Shardable: true,
		CV:          Search{prefix, twoPointer},
		LocalLinear: Search{epanechnikov, sortedLocalLinear}},
	{Name: "twopointer-parallel", Shardable: true,
		CV: Search{epanechnikov, twoPointer}},
	{Name: "twopointer-f32",
		CV: Search{epanechnikov, twoPointerF32}},
	{Name: "bagged",
		CV: Search{Kernels: prefix}},
}

// Rows returns the table in kernreg.Method order.
func Rows() []Row { return table[:] }

// At returns row i, which is kernreg.Method(i).
func At(i int) (Row, bool) {
	if i < 0 || i >= len(table) {
		return Row{}, false
	}
	return table[i], true
}

// Lookup returns the index of the row named name.
func Lookup(name string) (int, bool) {
	for i, r := range table {
		if r.Name == name {
			return i, true
		}
	}
	return 0, false
}

// Names joins the names of the rows that keep reports true, in table
// order, with sep.
func Names(sep string, keep func(Row) bool) string {
	var names []string
	for _, r := range table {
		if keep(r) {
			names = append(names, r.Name)
		}
	}
	return strings.Join(names, sep)
}

// Shard returns the shardable row named name; an empty name means
// "sorted", the default of /v1/shard and kerncoord jobs.
func Shard(name string) (Row, error) {
	if name == "" {
		name = "sorted"
	}
	if i, ok := Lookup(name); ok && table[i].Shardable {
		return table[i], nil
	}
	return Row{}, fmt.Errorf("method %q is not shardable (want %s)", name,
		Names(", ", func(r Row) bool { return r.Shardable }))
}

// Search returns the row's search for objective o.
func (r Row) Search(o Objective) Search {
	switch o {
	case CV:
		return r.CV
	case LocalLinearCV:
		return r.LocalLinear
	case AICc:
		return r.AICc
	}
	return Search{}
}

// Check reports whether the row supports objective o with kernel k.
// The error names the method, and for a kernel the row does not
// accept, the kernels it does.
func (r Row) Check(o Objective, k kernel.Kind) error {
	s := r.Search(o)
	if len(s.Kernels) == 0 {
		return fmt.Errorf("method %s does not support %s", r.Name, o)
	}
	for _, sk := range s.Kernels {
		if sk == k {
			return nil
		}
	}
	want := make([]string, len(s.Kernels))
	for i, sk := range s.Kernels {
		want[i] = sk.String()
	}
	return fmt.Errorf("method %s does not support the %v kernel for %s (want %s)", r.Name, k, o, strings.Join(want, ", "))
}

func sorted(ctx context.Context, x, y []float64, g bandwidth.Grid, s Spec) (bandwidth.Result, error) {
	return bandwidth.SortedGridSearchKernelStabilityContext(ctx, x, y, g, s.Kernel, s.Stability)
}

func sortedLocalLinear(ctx context.Context, x, y []float64, g bandwidth.Grid, s Spec) (bandwidth.Result, error) {
	return bandwidth.SortedGridSearchLocalLinearStabilityContext(ctx, x, y, g, s.Stability)
}

func sortedAICc(ctx context.Context, x, y []float64, g bandwidth.Grid, _ Spec) (bandwidth.Result, error) {
	return bandwidth.SortedGridSearchAICcContext(ctx, x, y, g)
}

func sortedParallel(ctx context.Context, x, y []float64, g bandwidth.Grid, s Spec) (bandwidth.Result, error) {
	return bandwidth.SortedGridSearchParallelStabilityContext(ctx, x, y, g, s.Workers, s.Stability)
}

func sortedF32(ctx context.Context, x, y []float64, g bandwidth.Grid, s Spec) (bandwidth.Result, error) {
	if s.Stability == bandwidth.Uncompensated {
		return core.SortedSequentialUncompensatedContext(ctx, x, y, g)
	}
	return core.SortedSequentialContext(ctx, x, y, g)
}

func naive(ctx context.Context, x, y []float64, g bandwidth.Grid, s Spec) (bandwidth.Result, error) {
	return bandwidth.NaiveGridSearchContext(ctx, x, y, g, s.Kernel)
}

func naiveLocalLinear(ctx context.Context, x, y []float64, g bandwidth.Grid, s Spec) (bandwidth.Result, error) {
	return bandwidth.NaiveGridSearchLocalLinearContext(ctx, x, y, g, s.Kernel)
}

func naiveAICc(ctx context.Context, x, y []float64, g bandwidth.Grid, s Spec) (bandwidth.Result, error) {
	return bandwidth.NaiveGridSearchAICcContext(ctx, x, y, g, s.Kernel)
}

func gpu(ctx context.Context, x, y []float64, g bandwidth.Grid, s Spec) (bandwidth.Result, error) {
	r, _, err := core.SelectGPUContext(ctx, x, y, g, core.GPUOptions{
		KeepScores: s.KeepScores, Kernel: s.Kernel, Uncompensated: s.Stability == bandwidth.Uncompensated,
	})
	return r, err
}

func gpuTiled(ctx context.Context, x, y []float64, g bandwidth.Grid, s Spec) (bandwidth.Result, error) {
	r, _, _, err := core.SelectGPUTiledContext(ctx, x, y, g, core.TiledOptions{
		KeepScores: s.KeepScores, Uncompensated: s.Stability == bandwidth.Uncompensated,
	})
	return r, err
}

// twoPointer serves both twopointer and twopointer-parallel: one engine,
// so the two names are bit-identical wherever both accept the kernel.
func twoPointer(ctx context.Context, x, y []float64, g bandwidth.Grid, s Spec) (bandwidth.Result, error) {
	return bandwidth.TwoPointerGridSearchParallelStabilityContext(ctx, x, y, g, s.Kernel, s.Workers, s.Stability)
}

func twoPointerF32(ctx context.Context, x, y []float64, g bandwidth.Grid, s Spec) (bandwidth.Result, error) {
	if s.Stability == bandwidth.Uncompensated {
		return core.TwoPointerSequentialUncompensatedContext(ctx, x, y, g)
	}
	return core.TwoPointerSequentialContext(ctx, x, y, g)
}
