// Command kernregd serves the repository's bandwidth selectors over an
// HTTP JSON API with a bounded worker pool, admission control, and
// graceful shutdown.
//
// Usage:
//
//	kernregd -addr :8080 -workers 4 -queue 8 -timeout 30s
//
// Endpoints: POST /v1/select, POST /v1/fit-predict, GET /healthz,
// GET /metrics. On SIGTERM or SIGINT the listener stops accepting,
// in-flight and queued selections run to completion (bounded by
// -drain-timeout), and the process exits 0.
//
// Passing -debug-addr starts a second listener serving net/http/pprof
// (/debug/pprof/...) so CPU and allocation profiles can be pulled from a
// running daemon. It is opt-in and should be bound to loopback: the
// profiling endpoints expose internals and must never share the public
// listener.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

// readHeaderTimeout bounds how long a client may take to send its
// request headers, so one that trickles them cannot hold a connection
// open forever.
const readHeaderTimeout = 10 * time.Second

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 0, "selector worker goroutines, bounding in-flight selections; one twopointer selection may use up to GOMAXPROCS goroutines (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 0, "admission queue depth beyond in-flight (0 = 2×workers)")
		timeout      = flag.Duration("timeout", 30*time.Second, "per-request compute deadline")
		drainTimeout = flag.Duration("drain-timeout", 60*time.Second, "graceful shutdown budget")
		maxN         = flag.Int("max-n", 0, "max observations per request (0 = 100000)")
		maxGrid      = flag.Int("max-grid", 0, "max grid points per request (0 = 2048)")
		fleetDevices = flag.Int("fleet-devices", 0, "simulated GPUs serving \"method\": \"fleet\" (0 = 2)")
		faultInject  = flag.Bool("enable-fault-injection", false, "register POST /v1/devices/inject (chaos testing only)")
		label        = flag.String("label", "", "worker label echoed in /v1/load and shard responses (cluster deployments)")
		debugAddr    = flag.String("debug-addr", "", "optional loopback address for net/http/pprof (e.g. 127.0.0.1:6060); empty disables")
	)
	flag.Parse()

	if *debugAddr != "" {
		// An explicit mux rather than http.DefaultServeMux: importing
		// net/http/pprof registers on the default mux, and serving that
		// would expose whatever else the process (or a dependency)
		// registered there.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			fmt.Fprintf(os.Stderr, "kernregd: pprof on %s\n", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, dmux); err != nil {
				fmt.Fprintf(os.Stderr, "kernregd: pprof listener: %v\n", err)
			}
		}()
	}

	srv := serve.New(serve.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		Timeout:        *timeout,
		MaxN:           *maxN,
		MaxGrid:        *maxGrid,
		FleetDevices:   *fleetDevices,
		FaultInjection: *faultInject,
		WorkerLabel:    *label,
	})
	hs := &http.Server{Addr: *addr, Handler: srv.Handler(), ReadHeaderTimeout: readHeaderTimeout}

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "kernregd: listening on %s\n", *addr)
		errc <- hs.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)

	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "kernregd: %v\n", err)
		return 1
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "kernregd: %v, draining\n", sig)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Stop the listener first so no new work arrives, then drain the
	// pool so every admitted selection completes.
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "kernregd: shutdown: %v\n", err)
		return 1
	}
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "kernregd: drain: %v\n", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "kernregd: drained, exiting")
	return 0
}
