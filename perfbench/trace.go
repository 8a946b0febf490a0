package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run's spans. They are recorded only by the benchmark's own
// code, around its calls into each layer, kept in memory, and written out
// when the run ends; nothing inside the program under test is
// instrumented.

// span is one timed call. Spans of one request share Trace; Parent is
// the span that caused this one (0 for a request's root).
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	// Bytes is the request plus response body size of a shard round
	// trip, or the heap bytes of a kernreg.allocs call.
	Bytes int64 `json:"bytes,omitempty"`
	// Allocs is the heap objects of a kernreg.allocs call.
	Allocs int64 `json:"allocs,omitempty"`
	// ReplicaMs is a shard response's own elapsed_ms.
	ReplicaMs float64 `json:"replica_ms,omitempty"`
	Err       string  `json:"err,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanRef identifies a span so that work it causes can name it as
// parent, in process through a context and across HTTP in traceHeader.
type spanRef struct{ trace, id uint64 }

type spanKey struct{}

func withSpan(ctx context.Context, ref spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, ref)
}

func spanFrom(ctx context.Context) (spanRef, bool) {
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	return ref, ok
}

// traceHeader carries "trace/span" from the load client to the
// benchmark's wrapper around the kerncoord handler.
const traceHeader = "X-Perfbench-Span"

func (r spanRef) String() string { return fmt.Sprintf("%d/%d", r.trace, r.id) }

func parseSpanRef(s string) (spanRef, bool) {
	t, id, ok := strings.Cut(s, "/")
	if !ok {
		return spanRef{}, false
	}
	tv, err1 := strconv.ParseUint(t, 10, 64)
	iv, err2 := strconv.ParseUint(id, 10, 64)
	return spanRef{tv, iv}, err1 == nil && err2 == nil
}

// tracer keeps every finished span in memory.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// openSpan is a span that has started but not ended.
type openSpan struct {
	t *tracer
	s span
}

// start opens a span named name under ctx's span, or as the root of a
// new trace when ctx carries none, and returns ctx carrying the new span.
func (t *tracer) start(ctx context.Context, name string) (context.Context, *openSpan) {
	id := t.ids.Add(1)
	s := span{Trace: id, ID: id, Name: name}
	if parent, ok := spanFrom(ctx); ok {
		s.Trace, s.Parent = parent.trace, parent.id
	}
	s.Start = t.now()
	return withSpan(ctx, spanRef{s.Trace, id}), &openSpan{t: t, s: s}
}

func (o *openSpan) end() *span {
	o.s.End = o.t.now()
	o.t.add(o.s)
	return &o.s
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines in path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceIndex groups spans for the per-layer arithmetic.
type traceIndex struct {
	children map[uint64][]span
	roots    []span
}

func indexSpans(spans []span) *traceIndex {
	ix := &traceIndex{children: map[uint64][]span{}}
	for _, s := range spans {
		if s.Parent == 0 {
			ix.roots = append(ix.roots, s)
		} else {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
	}
	sort.Slice(ix.roots, func(a, b int) bool { return ix.roots[a].Start < ix.roots[b].Start })
	return ix
}

// rootsNamed returns the roots of the traces a phase started.
func (ix *traceIndex) rootsNamed(name string) []span {
	var out []span
	for _, r := range ix.roots {
		if r.Name == name {
			out = append(out, r)
		}
	}
	return out
}

// descendants returns every span below s.
func (ix *traceIndex) descendants(s span) []span {
	var out []span
	stack := []uint64{s.ID}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range ix.children[id] {
			out = append(out, c)
			stack = append(stack, c.ID)
		}
	}
	return out
}

// child returns s's direct child named name.
func (ix *traceIndex) child(s span, name string) (span, bool) {
	for _, c := range ix.children[s.ID] {
		if c.Name == name {
			return c, true
		}
	}
	return span{}, false
}

// selfTime is s's duration minus the part of it its children cover.
// Children may overlap (a coordinator's shards run concurrently), so the
// covered part is the union of their intervals, clipped to s.
func (ix *traceIndex) selfTime(s span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range ix.children[s.ID] {
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	covered := int64(0)
	cur := iv{-1, -1}
	for _, v := range ivs {
		if v.lo > cur.hi {
			if cur.hi > cur.lo {
				covered += cur.hi - cur.lo
			}
			cur = v
		} else if v.hi > cur.hi {
			cur.hi = v.hi
		}
	}
	if cur.hi > cur.lo {
		covered += cur.hi - cur.lo
	}
	return s.dur() - time.Duration(covered)
}
