package main

import (
	"context"
	"sync"
	"time"
)

// record is one request's outcome.
type record struct {
	smp    *sample
	repeat bool
	rep    reply
	err    error
	// latency runs from the request's due time: its send time in a closed
	// loop, its scheduled time in an open loop.
	latency time.Duration
}

// send issues one request from src. With tr set the request is the root
// of a trace named root.
func (sys *system) send(ctx context.Context, src *source, due time.Time, tr *tracer, root string) record {
	smp, repeat := src.next()
	var sp *openSpan
	if tr != nil {
		ctx, sp = tr.start(ctx, root)
	}
	rep, err := sys.client.post(ctx, smp.body)
	lat := time.Since(due)
	if sp != nil {
		if err != nil {
			sp.s.Err = err.Error()
		}
		sp.end()
	}
	if err == nil {
		src.answered(smp, repeat)
	}
	return record{smp: smp, repeat: repeat, rep: rep, err: err, latency: lat}
}

// closedLoop runs clients goroutines that each send their next request
// as soon as the previous one is answered, for d. It returns the records
// and the completions per second.
func (sys *system) closedLoop(ctx context.Context, src *source, clients int, d time.Duration, tr *tracer) ([]record, float64) {
	var (
		mu   sync.Mutex
		recs []record
		wg   sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r := sys.send(ctx, src, time.Now(), tr, "closed")
				mu.Lock()
				recs = append(recs, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return recs, float64(len(recs)) / time.Since(start).Seconds()
}

// openLoop schedules requests at a fixed rate for d, whatever the
// system's state, and sends each on the first free client connection.
// Latency counts from the scheduled time, so a stall is charged to every
// request queued behind it. lags are how late the scheduler itself ran.
func (sys *system) openLoop(ctx context.Context, src *source, clients int, rate float64, d time.Duration, tr *tracer) (recs []record, lags []time.Duration) {
	n := max(1, int(rate*d.Seconds()))
	interval := time.Duration(float64(time.Second) / rate)
	due := make(chan time.Time, n) // sized to the number of sends, so the scheduler never blocks
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range due {
				r := sys.send(ctx, src, t, tr, "open")
				mu.Lock()
				recs = append(recs, r)
				mu.Unlock()
			}
		}()
	}
	lags = make([]time.Duration, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		t := start.Add(time.Duration(i) * interval)
		if w := time.Until(t); w > 0 {
			time.Sleep(w)
		}
		lags = append(lags, time.Since(t))
		due <- t
	}
	close(due)
	wg.Wait()
	return recs, lags
}

// warmUp sends the set-up's warm-up requests over every client and
// returns their records.
func (sys *system) warmUp(ctx context.Context, smps []*sample, clients int) []record {
	recs := make([]record, len(smps))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(smps); i += clients {
				start := time.Now()
				rep, err := sys.client.post(ctx, smps[i].body)
				recs[i] = record{smp: smps[i], rep: rep, err: err, latency: time.Since(start)}
			}
		}(c)
	}
	wg.Wait()
	return recs
}
