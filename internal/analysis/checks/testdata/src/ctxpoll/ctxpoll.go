//kernvet:path repro/internal/ctxpolltest

// Package ctxpoll exercises the ctxpoll analyzer: exported ...Context
// functions must take, observe, and not discard their context, and a
// non-Context sibling, where one exists, must not itself take one.
package ctxpoll

import "context"

// Search is the non-Context sibling of SearchContext.
func Search(xs []float64) int { return len(xs) }

// SearchContext polls its context: clean.
func SearchContext(ctx context.Context, xs []float64) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return len(xs), nil
}

// Pass is the non-Context sibling of PassContext.
func Pass(xs []float64) int { return len(xs) }

// PassContext propagates ctx onward, which counts as observing it.
func PassContext(ctx context.Context, xs []float64) (int, error) {
	return SearchContext(ctx, xs)
}

// Run is the non-Context sibling of RunContext.
func Run(xs []float64) int { return len(xs) }

// RunContext never looks at ctx.
func RunContext(ctx context.Context, xs []float64) int { // want `RunContext never polls its context`
	return len(xs)
}

// Scan is the non-Context sibling of ScanContext.
func Scan() {}

// ScanContext lacks the parameter its name promises.
func ScanContext() {} // want `ScanContext takes no context.Context parameter`

// WalkContext polls and has no non-Context sibling: clean, a lone
// ...Context entry point is allowed.
func WalkContext(ctx context.Context) error {
	return ctx.Err()
}

// StrideContext has no sibling, but never looks at ctx: still flagged.
func StrideContext(ctx context.Context, xs []float64) int { // want `StrideContext never polls its context`
	return len(xs)
}

// Visit is the non-Context sibling of VisitContext.
func Visit(xs []float64) {}

// VisitContext discards the caller's context unconditionally.
func VisitContext(ctx context.Context, xs []float64) {
	ctx = context.Background() // want `VisitContext discards the caller's context`
	_ = ctx.Err()
}

// Fill is the non-Context sibling of FillContext.
func Fill() error { return nil }

// FillContext defaults a nil context — the allowed guard form.
func FillContext(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return ctx.Err()
}

// Nop is the non-Context sibling of NopContext.
func Nop() {}

// NopContext's context parameter is unnamed.
func NopContext(context.Context) {} // want `NopContext's context parameter is unnamed`

// Shadowed takes a context even though a Context variant exists.
func Shadowed(ctx context.Context) error { return ctx.Err() } // want `Shadowed takes a context.Context, shadowing its Context variant ShadowedContext`

// ShadowedContext is fine on its own; its sibling is the problem.
func ShadowedContext(ctx context.Context) error { return ctx.Err() }

// searchContext is unexported and outside the contract.
func searchContext(ctx context.Context) {}

// Quiet is the non-Context sibling of QuietContext.
func Quiet(xs []float64) int { return len(xs) }

//kernvet:ignore ctxpoll -- testdata: function-doc suppression
func QuietContext(ctx context.Context, xs []float64) int {
	return len(xs)
}

// Sweeper pins that methods are audited exactly like package-level
// functions: a never-polling method-receiver ...Context is flagged.
type Sweeper struct{}

// Select is the non-Context sibling of Sweeper.SelectContext.
func (s *Sweeper) Select(xs []float64) float64 { return xs[0] }

// SelectContext never looks at ctx: flagged even as a method.
func (s *Sweeper) SelectContext(ctx context.Context, xs []float64) float64 { // want `SelectContext never polls its context`
	return xs[0]
}

// Probe takes a context. It is a package-level function, so it is not
// the sibling of Other.ProbeContext below.
func Probe(ctx context.Context) error { return ctx.Err() }

// Other shares method names with Sweeper and package-level functions
// but is a different type, so its Context methods find their siblings
// on Other only.
type Other struct{}

// ProbeContext polls; the ctx-taking package-level Probe is not its
// sibling: clean.
func (o *Other) ProbeContext(ctx context.Context) error { return ctx.Err() }

// Close takes a context although Other.CloseContext exists: flagged on
// the method, keyed by receiver.
func (o *Other) Close(ctx context.Context) error { return ctx.Err() } // want `Close takes a context.Context, shadowing its Context variant CloseContext`

// CloseContext is fine on its own; its sibling is the problem.
func (o *Other) CloseContext(ctx context.Context) error { return ctx.Err() }

// Pair is a multi-type-parameter generic receiver; its methods used to
// key to an empty receiver name, colliding with every other such type.
type Pair[K comparable, V any] struct{}

// Get takes a context and Pair has no GetContext: clean.
func (p *Pair[K, V]) Get(ctx context.Context) error { return ctx.Err() }

// Bag has a GetContext but no Get. Before the IndexListExpr fix the
// sibling lookup collided with Pair.Get and reported it as shadowing.
type Bag[K comparable, V any] struct{}

// GetContext has no sibling on Bag: clean.
func (b *Bag[K, V]) GetContext(ctx context.Context) error { return ctx.Err() }
