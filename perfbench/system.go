package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coord"
	"repro/internal/serve"
)

// system is the program under test, running in this process behind
// loopback listeners, plus the load client that drives it.
type system struct {
	w      workload
	client *loadClient
	// daemons are the kernregd servers: the one serving a kernregd
	// workload, or the coordinator's replicas.
	daemons []*serve.Server
	// handler is kernregd's API handler, for in-process calls.
	handler http.Handler
	// coord serves the kerncoord front end; shadow is a second
	// coordinator over the same replicas that the traced run calls in
	// process, so its cache sees exactly the layer phase's jobs.
	coord, shadow *coord.Coordinator

	servers []*http.Server
	wg      sync.WaitGroup
}

// kerncoord's flag defaults.
const (
	coordCacheEntries = 1024
	coordHedgeMin     = 25 * time.Millisecond
	coordHedgeMult    = 1.5
	coordHedgeWarmup  = 16
	coordLoadTTL      = 100 * time.Millisecond
	coordCooloff      = 2 * time.Second
	coordTimeout      = 60 * time.Second
)

// startSystem builds and starts the servers for w. With tr set the
// coordinator's replica clients record spans into it. wrap, when set,
// wraps the kernregd handler.
func startSystem(w workload, clients int, tr *tracer, wrap func(http.Handler) http.Handler) (*system, error) {
	sys := &system{w: w}
	if !w.coord {
		d := serve.New(serve.Config{Workers: 2})
		sys.daemons = []*serve.Server{d}
		sys.handler = d.Handler()
		if wrap != nil {
			sys.handler = wrap(sys.handler)
		}
		url, err := sys.listen(sys.handler)
		if err != nil {
			sys.close()
			return nil, err
		}
		sys.client = newLoadClient(url, clients)
		return sys, nil
	}
	var workers []*coord.Worker
	var shards *shardTransport // times every replica round trip when traced
	if tr != nil {
		shards = &shardTransport{base: http.DefaultTransport, tr: tr}
	}
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("replica-%d", i)
		d := serve.New(serve.Config{Workers: 1, WorkerLabel: name})
		sys.daemons = append(sys.daemons, d)
		url, err := sys.listen(d.Handler())
		if err != nil {
			sys.close()
			return nil, err
		}
		wk := coord.NewWorker(name, url)
		if shards != nil {
			wk.Client = &http.Client{Transport: shards}
		}
		workers = append(workers, wk)
	}
	cfg := coord.Config{
		Workers:         workers,
		CacheEntries:    coordCacheEntries,
		HedgeMin:        coordHedgeMin,
		HedgeMultiplier: coordHedgeMult,
		HedgeWarmup:     coordHedgeWarmup,
		LoadTTL:         coordLoadTTL,
		Cooloff:         coordCooloff,
	}
	var err error
	if sys.coord, err = coord.New(cfg); err != nil {
		sys.close()
		return nil, err
	}
	var front http.Handler = coord.NewServer(sys.coord, coord.ServerConfig{Timeout: coordTimeout})
	if tr != nil {
		if sys.shadow, err = coord.New(cfg); err != nil {
			sys.close()
			return nil, err
		}
		front = linkSpans(front)
	}
	url, err := sys.listen(front)
	if err != nil {
		sys.close()
		return nil, err
	}
	sys.client = newLoadClient(url, clients)
	return sys, nil
}

// listen serves h on a fresh loopback port and returns its base URL.
func (sys *system) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listening on loopback: %w", err)
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	sys.servers = append(sys.servers, hs)
	sys.wg.Add(1)
	go func() {
		defer sys.wg.Done()
		_ = hs.Serve(ln) // returns ErrServerClosed once close shuts it down
	}()
	return "http://" + ln.Addr().String(), nil
}

// close shuts the listeners down, drains the worker pools and waits for
// every goroutine the system started.
func (sys *system) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, hs := range sys.servers {
		_ = hs.Shutdown(ctx) // a timeout here leaves nothing to retry
	}
	sys.wg.Wait()
	for _, d := range sys.daemons {
		_ = d.Drain(ctx)
	}
	if sys.client != nil {
		sys.client.transport.CloseIdleConnections()
	}
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// linkSpans is the benchmark's wrapper around the kerncoord handler: it
// moves the client's span reference from traceHeader into the request
// context, which Coordinator.Select hands down to every replica round
// trip, where shardTransport picks it up.
func linkSpans(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if ref, ok := parseSpanRef(r.Header.Get(traceHeader)); ok {
			r = r.WithContext(withSpan(r.Context(), ref))
		}
		h.ServeHTTP(w, r)
	})
}

// loadClient sends the load over at most one connection per client.
type loadClient struct {
	url       string
	hc        *http.Client
	transport *http.Transport
	open      atomic.Int64
	maxOpen   atomic.Int64
}

func newLoadClient(url string, clients int) *loadClient {
	c := &loadClient{url: url}
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	c.transport = &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := dialer.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			n := c.open.Add(1)
			for m := c.maxOpen.Load(); n > m && !c.maxOpen.CompareAndSwap(m, n); m = c.maxOpen.Load() {
			}
			return &countedConn{Conn: conn, open: &c.open}, nil
		},
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}
	c.hc = &http.Client{Transport: c.transport, Timeout: 60 * time.Second}
	return c
}

// countedConn keeps loadClient.open current.
type countedConn struct {
	net.Conn
	open *atomic.Int64
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.open.Add(-1) })
	return c.Conn.Close()
}

// reply is the part of a /v1/select response the benchmark reads; the
// coordinator adds cache_hit and shards to kernregd's fields.
type reply struct {
	Bandwidth float64 `json:"bandwidth"`
	Index     int     `json:"index"`
	ElapsedMs float64 `json:"elapsed_ms"`
	CacheHit  bool    `json:"cache_hit"`
	Shards    int     `json:"shards"`
}

// post sends one selection. ctx's span, if any, travels in traceHeader.
func (c *loadClient) post(ctx context.Context, body []byte) (reply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url+"/v1/select", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if ref, ok := spanFrom(ctx); ok {
		req.Header.Set(traceHeader, ref.String())
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	return readReply(resp.StatusCode, resp.Body)
}

func readReply(status int, body io.Reader) (reply, error) {
	b, err := io.ReadAll(body)
	if err != nil {
		return reply{}, fmt.Errorf("reading reply: %w", err)
	}
	if status != http.StatusOK {
		return reply{}, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(b))
	}
	var r reply
	if err := json.Unmarshal(b, &r); err != nil {
		return reply{}, fmt.Errorf("decoding reply: %w", err)
	}
	return r, nil
}

// shardTransport is the http.RoundTripper the traced run installs on
// every coord.Worker.Client. Each shard or load-probe round trip becomes
// a span under the span found in the request context (Coordinator.Select
// passes its context down to Worker.Shard and Worker.Load).
type shardTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (t *shardTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if _, ok := spanFrom(req.Context()); !ok {
		return t.base.RoundTrip(req) // an untraced request
	}
	name := "coord.shard"
	if req.URL.Path == "/v1/load" {
		name = "coord.probe"
	}
	_, sp := t.tr.start(req.Context(), name)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		sp.s.Err = err.Error()
		sp.end()
		return nil, err
	}
	// Read the body here so the span covers the whole exchange and the
	// replica's elapsed_ms can be recorded; Worker.do reads it again
	// from memory.
	b, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	resp.Body = io.NopCloser(bytes.NewReader(b))
	sp.s.Bytes = max(req.ContentLength, 0) + int64(len(b))
	switch {
	case rerr != nil:
		sp.s.Err = rerr.Error()
	case resp.StatusCode != http.StatusOK:
		sp.s.Err = fmt.Sprintf("status %d", resp.StatusCode)
	case name == "coord.shard":
		var sr serve.ShardResponse
		if jerr := json.Unmarshal(b, &sr); jerr == nil {
			sp.s.ReplicaMs = sr.ElapsedMs
		}
	}
	sp.end()
	if rerr != nil {
		return nil, fmt.Errorf("reading replica response: %w", rerr)
	}
	return resp, nil
}
