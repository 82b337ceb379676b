package dse

import (
	"context"
	"sync/atomic"
)

// Window is one finished sweep window as its visitors see it: Points[k]
// is the point of design Lo+k of the sweep's configs, and Done[k] reports
// whether that design was evaluated (one that failed, or that
// cancellation stopped, was not, and its point means nothing). Cache hits
// and fresh simulations alike are Done.
//
// The slices, and the points they reach, belong to the sweep, which may
// reuse them for its next window once the visitor returns. A visitor must
// not keep either slice or any of the pointers after the call, and must
// not modify the points: it copies out what it needs. Window scratch is
// pooled across sweeps, so a visitor that kept a window's slices would
// see another job's points.
type Window struct {
	Lo     int
	Points []*Point
	Done   []bool
}

// ProgressFunc receives each finished window of a sweep, its points in
// input order, under the Window contract. Windows finish in any order
// and the callback is invoked concurrently from every window worker, so
// implementations must be safe for concurrent use and should return
// quickly (a slow callback stalls the worker that delivers it).
type ProgressFunc func(Window)

// progressKey carries the per-sweep ProgressFunc through the context.
type progressKey struct{}

// WithProgress returns a context that streams evaluated windows to fn:
// any Explorer sweep run under the returned context (RunContext,
// EvaluateContext, and Session sweeps such as the search runner's
// generations) delivers each finished window incrementally
// instead of only in the final slice. A nil fn returns ctx unchanged,
// and sweeps without a progress func keep their zero-overhead path: the
// callback is looked up once per sweep, never per window.
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

// CacheTally counts one job's own point-store outcomes over every sweep
// run under a context carrying it (WithCacheTally): Hits are designs the
// store served, Misses are designs evaluated here (including ones a
// concurrent sweep was evaluating at the same moment). Deltas of the
// store's global Stats would also
// count every concurrent job's lookups. Sweeps add once per window, from
// any worker; an Explorer without a store counts nothing.
type CacheTally struct {
	Hits, Misses atomic.Uint64
}

// tallyKey carries the per-job CacheTally through the context.
type tallyKey struct{}

// WithCacheTally returns a context whose sweeps add their store outcomes
// to t.
func WithCacheTally(ctx context.Context, t *CacheTally) context.Context {
	return context.WithValue(ctx, tallyKey{}, t)
}

// tallyFrom extracts the job's tally, nil when the context carries none.
func tallyFrom(ctx context.Context) *CacheTally {
	t, _ := ctx.Value(tallyKey{}).(*CacheTally)
	return t
}
