// Package spanflow exercises the span-coverage analyzer: exported
// ctx-takers that forward their context into the module must reach a
// span start, and every started span must End on all CFG paths.
package spanflow

import (
	"context"
	"errors"

	"fixture/spanflow/obs"
)

var errBad = errors.New("bad")

// Deferred is the canonical shape: defer covers every path.
func Deferred(ctx context.Context, n int) error {
	ctx, sp := obs.Start(ctx, "deferred")
	defer sp.End()
	if n < 0 {
		return errBad
	}
	return helper(ctx, n)
}

// EndsOnAllBranches ends explicitly on both the error and success path,
// which the dataflow must accept.
func EndsOnAllBranches(ctx context.Context, n int) error {
	_, sp := obs.Start(ctx, "branches")
	if n < 0 {
		sp.End()
		return errBad
	}
	sp.End()
	return nil
}

// LeakOnError is the seeded true positive: the early error return
// skips End, so the span leaks on that path.
func LeakOnError(ctx context.Context, n int) error {
	_, sp := obs.Start(ctx, "leaky") // want "may reach a return without End"
	if n < 0 {
		return errBad
	}
	sp.End()
	return nil
}

// LeakInLoop starts a span on every iteration and never ends it: the
// open span reaches the return only around the loop's back edge, so the
// dataflow must iterate to its fixpoint to see the leak.
func LeakInLoop(ctx context.Context, n int) {
	for i := 0; i < n; i++ {
		_, sp := obs.Start(ctx, "iter") // want "may reach a return without End"
		_ = sp
	}
}

// EndsAcrossIterations ends each iteration's span at the top of the
// next iteration and the last one after the loop, so no path leaks.
func EndsAcrossIterations(ctx context.Context, n int) {
	var sp *obs.Span
	for i := 0; i < n; i++ {
		sp.End()
		_, sp = obs.Start(ctx, "iter")
	}
	sp.End()
}

// Uninstrumented forwards its context into the module but no call path
// ever starts a span — its work is invisible in traces.
func Uninstrumented(ctx context.Context, n int) error { // want "no call path starts a span"
	return helper(ctx, n)
}

// DelegatesToInstrumented is covered transitively: instrumented starts
// the span on its behalf.
func DelegatesToInstrumented(ctx context.Context, n int) error {
	return instrumented(ctx, n)
}

// NoForward never hands its context to module code: nothing to
// instrument, exempt.
func NoForward(ctx context.Context, n int) int {
	if ctx.Err() != nil {
		return 0
	}
	return n * 2
}

func helper(ctx context.Context, n int) error {
	if n == 0 {
		return ctx.Err()
	}
	return nil
}

func instrumented(ctx context.Context, n int) error {
	ctx, sp := obs.Start(ctx, "inner")
	defer sp.End()
	return helper(ctx, n)
}
