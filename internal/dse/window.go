package dse

// WindowSize is the number of designs in a sweep window: a sweep splits
// its designs into windows of this many, and each is probed, evaluated
// (one batch.Evaluator pass) and visited as a unit. Small enough that a
// sweep's first designs stream within a window's evaluation time, large
// enough that the evaluator's group discovery shares terms across a
// window's designs.
const WindowSize = 32

// Window is one finished sweep window as its visitor sees it: Points[k]
// is the point of design Lo+k of the sweep's configs, and Done[k] reports
// whether that design was evaluated (one that failed, or that
// cancellation stopped, was not, and its point means nothing). Cache hits
// and fresh simulations alike are Done.
//
// The slices, and the points they reach, belong to the sweep, which may
// reuse them for its next window once the visitor returns. A visitor must
// not keep either slice or any of the pointers after the call, and must
// not modify the points: it copies out what it needs. Window scratch is
// recycled across sweeps, so a visitor that kept a window's slices would
// see another job's points.
type Window struct {
	Lo     int
	Points []*Point
	Done   []bool
}

// Visitor receives each finished window of a sweep, its points in
// input order, under the Window contract. Windows finish
// in any order and every window worker calls the visitor, so
// implementations must be safe for concurrent use and should return
// quickly (a slow visitor stalls the worker that calls it).
type Visitor func(Window)
