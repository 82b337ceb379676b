package dse

import "context"

// ProgressFunc receives each design point once its evaluation window
// finishes — cache hits and fresh simulations alike. Each window
// delivers its points in input order, but windows finish in any order
// and the callback is invoked concurrently from every window worker, so
// implementations must be safe for concurrent use and should return
// quickly (a slow callback stalls the worker that delivers it).
type ProgressFunc func(Point)

// progressKey carries the per-sweep ProgressFunc through the context.
type progressKey struct{}

// WithProgress returns a context that streams evaluated points to fn:
// any Explorer sweep run under the returned context (RunContext,
// EvaluateContext, and the search runner's evaluations, which flow
// through EvaluateContext) delivers each finished Point incrementally
// instead of only in the final slice. A nil fn returns ctx unchanged,
// and sweeps without a progress func keep their zero-overhead path: the
// callback is looked up once per sweep, never per point.
func WithProgress(ctx context.Context, fn ProgressFunc) context.Context {
	if fn == nil {
		return ctx
	}
	return context.WithValue(ctx, progressKey{}, fn)
}

// progressFrom extracts the sweep's progress callback, nil when the
// context carries none.
func progressFrom(ctx context.Context) ProgressFunc {
	fn, _ := ctx.Value(progressKey{}).(ProgressFunc)
	return fn
}
