// Command bwgrid selects the CV-optimal bandwidth for a kernel regression
// of y on x, from a CSV file or a synthetic dataset, using any of the
// library's methods.
//
// Usage:
//
//	bwgrid [-in data.csv | -dgp paper -n 1000 -seed 42]
//	       [-method name]
//	       [-kernel epanechnikov] [-k 50] [-hmin 0] [-hmax 0]
//	       [-scores] [-fit out.csv] [-points 100]
//
// -method takes any of the library's method names; `bwgrid -h` lists
// them. With -fit the selected bandwidth is used to fit the regression
// over an evenly spaced grid and the (x, ŷ) pairs are written as CSV.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/data"
	"repro/internal/method"
	"repro/internal/stats"
	"repro/kernreg"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bwgrid:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		in      = flag.String("in", "", "two-column CSV input (x,y); empty uses -dgp")
		dgp     = flag.String("dgp", "paper", "synthetic DGP: paper|sine|step|hetero|linear|clustered")
		n       = flag.Int("n", 1000, "synthetic sample size")
		seed    = flag.Int64("seed", 42, "synthetic data seed")
		meth    = flag.String("method", "sorted", "selection method: "+method.Names("|", func(method.Row) bool { return true }))
		esttype = flag.String("estimator", "lc", "regression type: lc (local constant) or ll (local linear)")
		crit    = flag.String("criterion", "cv.ls", "selection objective: cv.ls (least-squares CV) or cv.aic (corrected AIC)")
		kern    = flag.String("kernel", "epanechnikov", "kernel weighting function")
		k       = flag.Int("k", 50, "number of grid bandwidths")
		hmin    = flag.Float64("hmin", 0, "grid minimum (0 = paper default: domain/k)")
		hmax    = flag.Float64("hmax", 0, "grid maximum (0 = paper default: domain of X)")
		scores  = flag.Bool("scores", false, "print the full CV score vector")
		fitOut  = flag.String("fit", "", "write the fitted curve to this CSV file")
		points  = flag.Int("points", 100, "evaluation points for -fit")
		workers = flag.Int("workers", 0, "goroutines for parallel methods (0 = GOMAXPROCS)")
	)
	flag.Parse()

	var ds data.Dataset
	var err error
	if *in != "" {
		ds, err = data.ReadCSVFile(*in)
		if err != nil {
			return err
		}
		fmt.Printf("loaded %d observations from %s\n", ds.Len(), *in)
	} else {
		g, err := data.ParseDGP(*dgp)
		if err != nil {
			return err
		}
		ds = data.Generate(g, *n, *seed)
		fmt.Printf("generated %d observations from the %q DGP (seed %d)\n", ds.Len(), *dgp, *seed)
	}

	m, err := kernreg.ParseMethod(*meth)
	if err != nil {
		return err
	}
	opts := []kernreg.Option{
		kernreg.WithMethod(m),
		kernreg.WithKernel(*kern),
		kernreg.GridSize(*k),
		kernreg.Workers(*workers),
	}
	switch *esttype {
	case "lc":
	case "ll":
		opts = append(opts, kernreg.WithEstimator(kernreg.LocalLinear))
	default:
		return fmt.Errorf("unknown estimator %q (lc or ll)", *esttype)
	}
	switch *crit {
	case "cv.ls":
	case "cv.aic":
		opts = append(opts, kernreg.WithCriterion(kernreg.CriterionAICc))
	default:
		return fmt.Errorf("unknown criterion %q (cv.ls or cv.aic)", *crit)
	}
	if *hmin > 0 && *hmax > *hmin {
		opts = append(opts, kernreg.GridRange(*hmin, *hmax))
	}
	if *scores {
		opts = append(opts, kernreg.KeepScores())
	}

	start := time.Now()
	sel, err := kernreg.SelectBandwidth(ds.X, ds.Y, opts...)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	fmt.Printf("method:    %s (kernel %s, estimator %s)\n", sel.Method, *kern, *esttype)
	fmt.Printf("bandwidth: %.6g\n", sel.Bandwidth)
	fmt.Printf("cv score:  %.6g\n", sel.CV)
	if sel.Index >= 0 {
		fmt.Printf("grid:      index %d of %d in [%.4g, %.4g]\n",
			sel.Index, len(sel.Grid), sel.Grid[0], sel.Grid[len(sel.Grid)-1])
	}
	fmt.Printf("elapsed:   %v\n", elapsed)
	if *scores && sel.Scores != nil {
		fmt.Println("h\tcv")
		for j, h := range sel.Grid {
			fmt.Printf("%.6g\t%.6g\n", h, sel.Scores[j])
		}
	}

	if *fitOut != "" {
		reg, err := kernreg.FitKernel(ds.X, ds.Y, sel.Bandwidth, *kern)
		if err != nil {
			return err
		}
		min, max := stats.MinMax(ds.X)
		xs := make([]float64, *points)
		for i := range xs {
			xs[i] = min + (max-min)*float64(i)/float64(*points-1)
		}
		ys := reg.PredictGrid(xs)
		f, err := os.Create(*fitOut)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintln(f, "x,yhat")
		for i := range xs {
			fmt.Fprintf(f, "%.8g,%.8g\n", xs[i], ys[i])
		}
		fmt.Printf("fitted curve (%d points) written to %s\n", *points, *fitOut)
	}
	return nil
}
