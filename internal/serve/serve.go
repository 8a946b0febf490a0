// Package serve is the concurrency layer of the kernregd bandwidth
// selection service: a bounded worker pool with admission control,
// per-request deadline propagation into the selector hot loops, and a
// graceful drain for shutdown.
//
// The design maps the paper's batch programs onto a long-running
// service without letting concurrency distort the numerics: every
// request runs one of the existing selectors unchanged (the pool only
// decides *when* it runs), cancellation reaches the selector via the
// context plumbing of kernreg.SelectBandwidthContext, and admission
// control keeps the queue from growing past a configured depth —
// excess load is shed with 429 rather than absorbed as unbounded
// latency.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/gpu"
)

// Config sizes the service.
type Config struct {
	// Workers is the number of selector goroutines; 0 means GOMAXPROCS.
	// Each in-flight selection occupies one worker for its duration, so
	// this bounds the number of in-flight selections, not the cores
	// they use: one twopointer selection may share its grid across up
	// to GOMAXPROCS goroutines.
	Workers int
	// QueueDepth is how many admitted requests may wait for a worker
	// beyond those already running; 0 means 2×Workers. A full queue
	// sheds new requests with ErrQueueFull (HTTP 429).
	QueueDepth int
	// Timeout caps each request's compute time; 0 means 30s. The
	// deadline propagates into the selector hot loop, so an expired
	// request stops computing rather than running to completion.
	Timeout time.Duration
	// MaxN caps the observations per request; 0 means 100,000.
	MaxN int
	// MaxGrid caps the grid size per request; 0 means 2,048 (the
	// simulated device's constant-memory limit).
	MaxGrid int
	// FleetDevices sizes the simulated multi-GPU fleet serving
	// "method": "fleet" selections; 0 means 2 (the paper machine's two
	// Tesla S10s).
	FleetDevices int
	// FaultInjection registers POST /v1/devices/inject, the debug hook
	// the chaos smoke test uses to kill a device under live traffic.
	// Off by default: injection is an operator weapon, not a client API.
	FaultInjection bool
	// WorkerLabel names this replica in shard responses and GET
	// /v1/load, so a coordinator's logs and metrics can attribute work
	// to a specific worker. Empty is fine for single-node deployments.
	WorkerLabel string
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.MaxN <= 0 {
		c.MaxN = 100_000
	}
	if c.MaxGrid <= 0 {
		c.MaxGrid = 2048
	}
	if c.FleetDevices <= 0 {
		c.FleetDevices = 2
	}
	return c
}

var (
	// ErrQueueFull is returned when admission control sheds a request
	// because the wait queue is at capacity. Maps to HTTP 429.
	ErrQueueFull = errors.New("serve: queue full, request shed")
	// ErrDraining is returned for requests arriving after Drain began.
	// Maps to HTTP 503.
	ErrDraining = errors.New("serve: server draining")
)

// job is one admitted unit of work. The worker runs fn with the
// request's context and closes done; the submitting handler blocks on
// done, so responses are written on the handler goroutine only.
type job struct {
	ctx  context.Context
	fn   func(context.Context)
	done chan struct{}
}

// Server is the worker pool plus its HTTP API.
type Server struct {
	cfg     Config
	metrics *Metrics
	mux     *http.ServeMux

	// fleet is the shared simulated multi-GPU fleet behind "method":
	// "fleet", GET /v1/devices, and the injection hook. SimManager is
	// internally locked, so concurrent selections and health queries
	// need no coordination here.
	fleet *gpu.SimManager

	// mu guards draining and orders submits against the close(jobs) in
	// Drain: submitters hold the read lock across the draining check
	// and the channel send, so a send can never race the close.
	mu       sync.RWMutex
	draining bool
	jobs     chan *job
	wg       sync.WaitGroup
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	fleet, err := gpu.NewSimManager(cfg.FleetDevices, gpu.TeslaS10())
	if err != nil {
		// withDefaults guarantees FleetDevices ≥ 1 and the Tesla S10
		// profile validates, so this is unreachable without a
		// programming error.
		panic(fmt.Sprintf("serve: building device fleet: %v", err))
	}
	s := &Server{
		cfg:     cfg,
		jobs:    make(chan *job, cfg.QueueDepth),
		metrics: newMetrics(),
		fleet:   fleet,
	}
	s.metrics.queueDepth = func() int { return len(s.jobs) }
	s.metrics.fleetEvents = fleet.TotalHealthEvents
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker() //kernvet:ignore goleak -- server-scoped pool: workers drain s.jobs until close and are joined by Drain via s.wg, not by New
	}
	s.mux = s.routes()
	return s
}

// Handler returns the HTTP API (see api.go for the routes).
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the server's counters for tests and /metrics.
func (s *Server) Metrics() *Metrics { return s.metrics }

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.jobs {
		// fn handles a cancelled ctx itself (the selector's entry check
		// returns immediately), so a request whose client vanished while
		// queued costs the worker one ctx poll, not a full selection.
		j.fn(j.ctx)
		close(j.done)
	}
}

// submit admits fn into the pool and blocks until the worker has run it
// (or drained past it). It never runs fn on the calling goroutine.
func (s *Server) submit(ctx context.Context, fn func(context.Context)) error {
	j := &job{ctx: ctx, fn: fn, done: make(chan struct{})}
	s.mu.RLock()
	if s.draining {
		s.mu.RUnlock()
		return ErrDraining
	}
	select {
	case s.jobs <- j:
		s.mu.RUnlock()
	default:
		s.mu.RUnlock()
		s.metrics.IncShed()
		return ErrQueueFull
	}
	<-j.done
	return nil
}

// Drain stops admission, lets the workers finish every queued and
// in-flight job, and returns when the pool is idle or ctx expires.
// Safe to call more than once.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	if !already {
		close(s.jobs)
	}
	s.mu.Unlock()

	idle := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether Drain has begun (used by /healthz).
func (s *Server) Draining() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.draining
}
