// Package batch evaluates design-space sweeps struct-of-arrays: the
// workload is lowered once (ir.Lower, done by the caller) and every
// design in the sweep is evaluated per IR node — one pass per operator
// over contiguous slices — instead of one design at a time through the
// scalar simulator. It is the evaluator behind every dse.Explorer sweep
// on the analytic engine: the explorer feeds it fixed windows of designs
// from parallel workers, one SweepInto call per window.
//
// A sweep evaluates sums only or per-operator profiles. Sweep returns
// every design's per-operator Times; SweepInto with a nil backing
// returns the phase sums and MFUs alone, writing each design's op row
// into one reused scratch row, and that is how dse sweeps run: they rank
// designs on per-design scalars, and a per-operator breakdown is a
// one-design query (sim.Simulate, or Sweep). Both passes run the same
// loop in the same summation order, so their sums are bit-identical.
//
// # Why it is fast
//
// A sweep's designs share almost all of their expensive sub-problems. Each
// Sweep or SweepInto call — one window, when dse.Explorer is the caller —
// discovers the distinct groups of each resource term's input axes among
// its own designs:
//
//   - compute groups: core/lane/array geometry, vector width, L1, clock —
//     the axes perf.MatmulComputeTime and the vector compute term read
//     (Table 3's 512 designs collapse to 32);
//   - L2 groups: the L2 capacity the blocking search reads (4 groups);
//   - HBM groups: the memory bandwidth the DRAM term divides by (4);
//   - interconnect groups: the device bandwidth the collective reads.
//
// Each term (L1 tile search, utilisation model, ring all-reduce) is
// computed once per group per node into a flat scratch arena; one loop
// over the designs then assembles final perf.Times from table lookups —
// no divides, no searches, no map probes. The L2 blocking search, the
// most expensive term, is shared wider: the Evaluator keeps one result
// per distinct (capacity, M, K, N, bytes-per-element) tuple, so the
// windows that share an evaluator, every window of every sweep of one dse
// session, search each tuple once between them (Table 3 needs 768
// searches window by window, but has at most 40 distinct tuples). The
// scratch arena lives in the caller's Outcome, so a caller that reuses
// its Outcome (a dse window does) reuses a grown arena, and the
// steady-state sweep performs zero allocations (pinned by
// TestBatchSteadyStateZeroAllocs).
//
// # Why it is exactly equal to the scalar path
//
// Batch and scalar evaluation call the same exported perf functions
// (perf.L1TileBytesPerMAC, perf.BlockedDRAMTraffic, perf.MatmulComputeTime,
// perf.RingAllReduceSec, and the Engine's *FromTerms assembly methods) on
// identical inputs: every configuration axis a term reads is part of its
// group key, so the group representative's term is bit-identical to what
// the scalar path computes per design, and IEEE-754 arithmetic is
// deterministic. The equality is bit-for-bit (math.Float64bits), enforced
// by the golden differential suite and FuzzBatchScalarEquality.
package batch

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/arch"
	"repro/internal/ir"
	"repro/internal/perf"
	"repro/internal/sim"
)

// Evaluator evaluates sweeps struct-of-arrays against one analytic engine.
// It is safe for concurrent use: each sweep works in its own Outcome's
// scratch arena and only reads the engine's fields. An Evaluator keeps
// the L2 blocking search's results for its own lifetime, so it is meant
// to span one session (every window of its sweeps, on every worker: one
// grid sweep, or every generation of one search run) and then be
// dropped; it must not be copied after first use.
type Evaluator struct {
	// Engine holds the analytic model constants. Must be non-nil; only
	// its fields are read.
	Engine *perf.Engine

	// l2 holds one perf.BlockedDRAMTraffic result per distinct argument
	// tuple this evaluator has met, filled under l2mu on first use. The
	// zero value is ready: the map is made on the first insert.
	l2mu sync.Mutex
	l2   map[l2Args]float64
}

// l2Args is the exact argument list of perf.BlockedDRAMTraffic, a pure
// function: equal tuples give bit-identical traffic, so a stored result
// is what a fresh call would return.
type l2Args struct {
	capBits uint64 // Float64bits of the usable L2 capacity in bytes
	m, k, n int
	bpeBits uint64 // Float64bits of the weight bytes per element
}

// Outcome is the result of one batch sweep, indexed like the input configs.
type Outcome struct {
	// Results holds the simulated profile of every completed design.
	Results []sim.Result
	// Done reports which designs completed: false entries were either
	// skipped by a sweep cancelled before it started or failed
	// individually (see Errs).
	Done []bool
	// Errs, when non-nil, holds the per-design failure (config validation
	// or an unknown operator) at the failed design's index. Errors are the
	// raw causes, unwrapped — callers wanting dse-style presentation wrap
	// them per design.
	Errs []error

	// s is the scratch arena the sweeps into this Outcome work in, made
	// by the first one. Nothing in it escapes a sweep (per-op Times are
	// copied into the caller's backing array, or overwritten in the
	// scratch row of a sums-only sweep), so a reused Outcome reuses its
	// grown arena.
	s *scratch
}

// setErr records a per-design failure, allocating Errs on first use so
// clean sweeps never pay for it.
func (o *Outcome) setErr(d, n int, err error) {
	if o.Errs == nil {
		o.Errs = make([]error, n)
	}
	o.Errs[d] = err
}

// Node kinds. Trivial collectives (tp == 1 or zero bytes) are their own
// kind so the hot loop stores the constant Time without a group lookup.
const (
	kindMatmul = iota
	kindVector
	kindAllReduce
	kindTrivialComm
	kindUnknown
)

// compAxes is the compute-group key: exactly the configuration axes the
// matmul compute/feed term and the vector compute term read. Designs equal
// on these axes get bit-identical compute terms.
type compAxes struct {
	cores, lanes, dimX, dimY, vecW, l1KB int
	clockBits                            uint64
}

// feedAxes is the feed-group key: the only configuration axes the L1
// tiling search (perf.L1TileBytesPerMAC and its naive ablation) reads.
// Compute groups equal on these share one tiling solution per matmul
// shape — Table 3's 32 compute groups collapse to 20 feed groups.
type feedAxes struct {
	dimX, dimY, l1PerLane int
}

// vecAxes is the vector-group key: the only configuration axes the vector
// compute term (arch.Config.VectorTFLOPS) reads. Table 3's 32 compute
// groups collapse to 8 vector groups, shrinking every vector node's
// finished-Time table fourfold.
type vecAxes struct {
	cores, lanes, vecW int
	clockBits          uint64
}

// nodeInfo is one IR node prepared for batch evaluation: its operator,
// kind, and the offsets of its per-group term tables in the scratch arena.
type nodeInfo struct {
	kind int
	mm   perf.Matmul
	vec  perf.Vector
	ar   perf.AllReduce
	// err is the per-design error of a kindUnknown node, mirroring the
	// scalar simulator's message for the same graph.
	err error
	// tcOff indexes compute terms (matmul/vector: per compute group;
	// all-reduce: per interconnect group). flOff indexes the matmul
	// feed-limited flags. trOff indexes matmul traffic per L2 group.
	// tdOff indexes DRAM-limited seconds (matmul: per L2×HBM group pair;
	// vector: per HBM group).
	tcOff, flOff, trOff, tdOff int
	// tmOff indexes the node's finished per-group Times (vector: compute ×
	// HBM groups; all-reduce: interconnect groups; trivial comm: one entry;
	// matmul: compute × memory groups when tabled). The hot loop then
	// copies instead of assembling.
	tmOff int
	// tabled marks a matmul whose full group product undercuts the design
	// count, so its Times are precomputed like the other kinds'.
	tabled bool
	// traffic is a vector node's constant HBM byte count.
	traffic float64
	// flops is a matmul node's design-independent FLOP count.
	flops float64
}

// scratch is the arena one sweep works in. All slices are length-managed
// with capacity reuse so repeated sweeps through the same evaluator settle
// at zero allocations.
type scratch struct {
	nodes    []nodeInfo
	nPrefill int
	tp       int

	// Per-design: validity and group indices. mem = dram*nHBM + hbm.
	ok                  []bool
	cg, dg, hg, mem, ig []int32

	// Group keys and one representative design index per group.
	compKeys []compAxes
	compRep  []int32
	// fg maps a compute group to its feed group; bpm is the per-feed-group
	// L1 tiling solution buffer, refilled one matmul node at a time.
	fg       []int32
	feedKeys []feedAxes
	bpm      []float64
	// vgOfCG maps a compute group to its vector group; vg is the same
	// mapping resolved per design for the hot loop.
	vecKeys  []vecAxes
	vecRep   []int32
	vgOfCG   []int32
	vg       []int32
	dramKeys []int32 // L2MB
	dramRep  []int32
	hbmKeys  []uint64 // Float64bits(HBMBandwidthGBs)
	hbmRep   []int32
	commKeys []uint64 // Float64bits(DeviceBWGBs)
	commRep  []int32

	// Per-group derived constants, bit-identical to the scalar path's
	// inline expressions because every input is in the group key.
	hbmDenom []float64 // HBMBandwidthGBs·1e9·DRAMEfficiency
	vecDenom []float64 // VectorTFLOPS()·1e12·VectorEfficiency
	peak     []float64 // TensorTOPS()·1e12
	l2Cap    []float64 // L2FillFraction·L2Bytes()

	// Flat term arena. times holds finished per-group Times; nHG and nMem
	// are the HBM and L2×HBM group counts its rows stride by.
	terms     []float64
	feedLim   []bool
	times     []perf.Time
	nHG, nMem int

	// row is the one op row a sums-only sweep writes every design into.
	row []perf.Time
}

// growF resizes s to length n, reusing capacity; fresh elements are not
// zeroed — callers overwrite or zero explicitly.
func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growB(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growI(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growT(s []perf.Time, n int) []perf.Time {
	if cap(s) < n {
		return make([]perf.Time, n)
	}
	return s[:n]
}

// Sweep evaluates every configuration against the lowered graph. On full
// success every Done entry is true and the error is nil. Designs that fail
// individually (validation, unknown operator) are reported in Outcome.Errs
// and do not stop the sweep. A context already ended evaluates nothing
// and returns an error wrapping ctx.Err(); a sweep that starts runs to
// the end, since a caller cancels between sweeps (dse checks between its
// windows).
func (e *Evaluator) Sweep(ctx context.Context, cfgs []arch.Config, g ir.Graph) (Outcome, error) {
	out := Outcome{
		Results: make([]sim.Result, len(cfgs)),
		Done:    make([]bool, len(cfgs)),
	}
	// The per-op Times escape into the results, so their backing array
	// is per-sweep.
	err := e.SweepInto(ctx, cfgs, g, &out, make([]perf.Time, len(cfgs)*len(g.Nodes)))
	return out, err
}

// SweepInto is Sweep on caller-owned memory: out.Results and out.Done
// must hold len(cfgs) entries each, and backing len(cfgs)·len(g.Nodes)
// Times, which the results' PrefillOps and DecodeOps slice into. With a
// nil backing it evaluates sums only: the results' TTFT, TBT and MFUs are
// bit-identical to Sweep's, and their PrefillOps and DecodeOps are nil.
// It resets out.Done and out.Errs first and works in out's scratch arena,
// so a caller can reuse one Outcome across sweeps; with the arena grown
// it allocates nothing but the per-design error list of a sweep that has
// failures. Concurrent sweeps need an Outcome each.
func (e *Evaluator) SweepInto(ctx context.Context, cfgs []arch.Config, g ir.Graph, out *Outcome, backing []perf.Time) error {
	for i := range out.Done {
		out.Done[i] = false
	}
	out.Errs = nil
	if e.Engine == nil {
		return fmt.Errorf("batch: evaluator has no engine; set Engine")
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("batch: sweep aborted: %w", err)
	}
	if out.s == nil {
		out.s = new(scratch)
	}
	s := out.s
	s.prepare(e.Engine, cfgs, g, out)
	for j := range s.nodes {
		e.prepNode(s, cfgs, j)
	}
	// A design's op row starts at d·stride: its own row of the caller's
	// backing, or the one scratch row every design of a sums-only sweep
	// overwrites.
	stride, perOp := len(s.nodes), backing != nil
	if !perOp {
		s.row = growT(s.row, len(s.nodes))
		backing, stride = s.row, 0
	}
	e.assemble(s, cfgs, g, backing, stride, perOp, out)
	return nil
}

// prepare builds the sweep's node list (prefill then decode, the scalar
// phase order), validates every design, discovers the term groups, and
// sizes the term arena.
func (s *scratch) prepare(eng *perf.Engine, cfgs []arch.Config, g ir.Graph, out *Outcome) {
	s.tp = g.Workload.TensorParallel
	s.nodes = s.nodes[:0]
	for _, n := range g.Nodes {
		if n.Phase == ir.Prefill {
			s.addNode(n)
		}
	}
	s.nPrefill = len(s.nodes)
	for _, n := range g.Nodes {
		if n.Phase == ir.Decode {
			s.addNode(n)
		}
	}

	n := len(cfgs)
	s.ok = growB(s.ok, n)
	s.cg = growI(s.cg, n)
	s.dg = growI(s.dg, n)
	s.hg = growI(s.hg, n)
	s.mem = growI(s.mem, n)
	s.ig = growI(s.ig, n)
	s.vg = growI(s.vg, n)

	s.compKeys = s.compKeys[:0]
	s.compRep = s.compRep[:0]
	s.dramKeys = s.dramKeys[:0]
	s.dramRep = s.dramRep[:0]
	s.hbmKeys = s.hbmKeys[:0]
	s.hbmRep = s.hbmRep[:0]
	s.commKeys = s.commKeys[:0]
	s.commRep = s.commRep[:0]
	// Grid expansion orders designs so neighbours usually share their
	// compute axes; checking the previous design's group before the scan
	// turns most compAxes lookups into one struct compare.
	prevCG := int32(-1)
	var prevKey compAxes
	for d := range cfgs {
		c := &cfgs[d]
		if err := c.Validate(); err != nil {
			s.ok[d] = false
			out.setErr(d, n, err)
			continue
		}
		s.ok[d] = true
		key := compAxes{
			cores: c.CoreCount, lanes: c.LanesPerCore,
			dimX: c.SystolicDimX, dimY: c.SystolicDimY,
			vecW: c.VectorWidth, l1KB: c.L1KB,
			clockBits: math.Float64bits(c.ClockGHz),
		}
		if prevCG >= 0 && key == prevKey {
			s.cg[d] = prevCG
		} else {
			s.cg[d] = s.findComp(key, d)
			prevCG, prevKey = s.cg[d], key
		}
		s.dg[d] = s.findDram(int32(c.L2MB), d)
		s.hg[d] = s.findHBM(math.Float64bits(c.HBMBandwidthGBs), d)
		s.ig[d] = s.findComm(math.Float64bits(c.DeviceBWGBs), d)
	}
	nHG := len(s.hbmKeys)
	for d := range cfgs {
		if s.ok[d] {
			s.mem[d] = s.dg[d]*int32(nHG) + s.hg[d]
		}
	}

	// Per-group derived constants, from the group representative — equal
	// on every key axis to all members, so the products are bit-identical
	// to the scalar path's inline expressions.
	s.hbmDenom = growF(s.hbmDenom, nHG)
	for i, rep := range s.hbmRep {
		s.hbmDenom[i] = cfgs[rep].HBMBandwidthGBs * 1e9 * eng.DRAMEfficiency
	}
	s.peak = growF(s.peak, len(s.compKeys))
	for i, rep := range s.compRep {
		s.peak[i] = cfgs[rep].TensorTOPS() * 1e12
	}
	s.vecKeys = s.vecKeys[:0]
	s.vecRep = s.vecRep[:0]
	s.vgOfCG = growI(s.vgOfCG, len(s.compRep))
	for c, rep := range s.compRep {
		cfg := &cfgs[rep]
		vk := vecAxes{
			cores: cfg.CoreCount, lanes: cfg.LanesPerCore,
			vecW: cfg.VectorWidth, clockBits: math.Float64bits(cfg.ClockGHz),
		}
		v := int32(-1)
		for i := range s.vecKeys {
			if s.vecKeys[i] == vk {
				v = int32(i)
				break
			}
		}
		if v < 0 {
			v = int32(len(s.vecKeys))
			s.vecKeys = append(s.vecKeys, vk)
			s.vecRep = append(s.vecRep, rep)
		}
		s.vgOfCG[c] = v
	}
	s.vecDenom = growF(s.vecDenom, len(s.vecKeys))
	for i, rep := range s.vecRep {
		s.vecDenom[i] = cfgs[rep].VectorTFLOPS() * 1e12 * eng.VectorEfficiency
	}
	for d := range cfgs {
		if s.ok[d] {
			s.vg[d] = s.vgOfCG[s.cg[d]]
		}
	}
	s.l2Cap = growF(s.l2Cap, len(s.dramKeys))
	for i, rep := range s.dramRep {
		s.l2Cap[i] = eng.L2FillFraction * float64(cfgs[rep].L2Bytes())
	}
	s.feedKeys = s.feedKeys[:0]
	s.fg = growI(s.fg, len(s.compRep))
	for c, rep := range s.compRep {
		cfg := &cfgs[rep]
		fk := feedAxes{cfg.SystolicDimX, cfg.SystolicDimY, cfg.L1BytesPerLane()}
		f := int32(-1)
		for i := range s.feedKeys {
			if s.feedKeys[i] == fk {
				f = int32(i)
				break
			}
		}
		if f < 0 {
			f = int32(len(s.feedKeys))
			s.feedKeys = append(s.feedKeys, fk)
		}
		s.fg[c] = f
	}
	s.bpm = growF(s.bpm, len(s.feedKeys))

	// Lay out the term and Time arenas: offsets per node, sized by group
	// counts. Every kind with fewer distinct Times than designs also gets
	// a finished-Time table so the hot loop copies instead of assembling;
	// a matmul's full group product can match or exceed the design count
	// (Table 3 does exactly), in which case tabling it would only add work.
	nCG, nDG, nOG := len(s.compKeys), len(s.dramKeys), len(s.commKeys)
	nVG := len(s.vecKeys)
	s.nHG, s.nMem = nHG, nDG*nHG
	mmTab := nCG*s.nMem < len(cfgs)
	need, needFL, needT := 0, 0, 0
	for j := range s.nodes {
		nd := &s.nodes[j]
		switch nd.kind {
		case kindMatmul:
			nd.tcOff, need = need, need+nCG
			nd.trOff, need = need, need+nDG
			nd.tdOff, need = need, need+nDG*nHG
			nd.flOff, needFL = needFL, needFL+nCG
			if nd.tabled = mmTab; mmTab {
				nd.tmOff, needT = needT, needT+nCG*s.nMem
			}
		case kindVector:
			nd.tcOff, need = need, need+nVG
			nd.tdOff, need = need, need+nHG
			nd.tmOff, needT = needT, needT+nVG*nHG
		case kindAllReduce:
			nd.tcOff, need = need, need+nOG
			nd.tmOff, needT = needT, needT+nOG
		case kindTrivialComm:
			nd.tmOff, needT = needT, needT+1
		}
	}
	s.terms = growF(s.terms, need)
	s.feedLim = growB(s.feedLim, needFL)
	s.times = growT(s.times, needT)
}

// addNode classifies one IR node. Unknown operator types become
// per-design errors phrased exactly like the scalar simulator's.
func (s *scratch) addNode(n ir.Node) {
	nd := nodeInfo{}
	switch o := n.Op.(type) {
	case perf.Matmul:
		nd.kind = kindMatmul
		nd.mm = o
		nd.flops = perf.MatmulFLOPs(o)
	case perf.Vector:
		nd.kind = kindVector
		nd.vec = o
		nd.traffic = o.ReadBytes + o.WriteBytes
	case perf.AllReduce:
		if s.tp == 1 || o.Bytes == 0 {
			nd.kind = kindTrivialComm
		} else {
			nd.kind = kindAllReduce
		}
		nd.ar = o
	default:
		nd.kind = kindUnknown
		nd.err = fmt.Errorf("sim: %s: op %s: perf: unknown operator type %T", n.Phase, n.Op.OpName(), n.Op)
	}
	s.nodes = append(s.nodes, nd)
}

func (s *scratch) findComp(k compAxes, d int) int32 {
	for i := range s.compKeys {
		if s.compKeys[i] == k {
			return int32(i)
		}
	}
	s.compKeys = append(s.compKeys, k)
	s.compRep = append(s.compRep, int32(d))
	return int32(len(s.compKeys) - 1)
}

func (s *scratch) findDram(k int32, d int) int32 {
	for i, key := range s.dramKeys {
		if key == k {
			return int32(i)
		}
	}
	s.dramKeys = append(s.dramKeys, k)
	s.dramRep = append(s.dramRep, int32(d))
	return int32(len(s.dramKeys) - 1)
}

func (s *scratch) findHBM(k uint64, d int) int32 {
	for i, key := range s.hbmKeys {
		if key == k {
			return int32(i)
		}
	}
	s.hbmKeys = append(s.hbmKeys, k)
	s.hbmRep = append(s.hbmRep, int32(d))
	return int32(len(s.hbmKeys) - 1)
}

func (s *scratch) findComm(k uint64, d int) int32 {
	for i, key := range s.commKeys {
		if key == k {
			return int32(i)
		}
	}
	s.commKeys = append(s.commKeys, k)
	s.commRep = append(s.commRep, int32(d))
	return int32(len(s.commKeys) - 1)
}

// prepNode fills node j's term tables, one entry per group, through the
// same exported perf functions the scalar path times with.
func (e *Evaluator) prepNode(s *scratch, cfgs []arch.Config, j int) {
	eng := e.Engine
	nd := &s.nodes[j]
	switch nd.kind {
	case kindMatmul:
		m := nd.mm
		for f, fk := range s.feedKeys {
			if eng.NaiveL1Tiling {
				s.bpm[f] = perf.NaiveL1BytesPerMAC(fk.dimX, fk.dimY)
			} else {
				s.bpm[f] = perf.L1TileBytesPerMAC(fk.l1PerLane, fk.dimX, fk.dimY, m.M, m.N, m.K)
			}
		}
		for c, rep := range s.compRep {
			cfg := cfgs[rep]
			sec, fl := perf.MatmulComputeTime(cfg, m, s.bpm[s.fg[c]])
			s.terms[nd.tcOff+c] = sec
			s.feedLim[nd.flOff+c] = fl
		}
		bb := m.WeightBytesPerElem()
		for dgi := range s.dramKeys {
			var per float64
			if eng.NaiveDRAMTraffic {
				per = perf.WorstCaseDRAMTraffic(m.M, m.K, m.N, bb)
			} else {
				per = e.blockedTraffic(s.l2Cap[dgi], m, bb)
			}
			s.terms[nd.trOff+dgi] = float64(m.Batch) * per
		}
		nHG := len(s.hbmKeys)
		for dgi := range s.dramKeys {
			tr := s.terms[nd.trOff+dgi]
			for h := 0; h < nHG; h++ {
				s.terms[nd.tdOff+dgi*nHG+h] = tr / s.hbmDenom[h]
			}
		}
		if nd.tabled {
			for c := range s.compRep {
				tc, fl := s.terms[nd.tcOff+c], s.feedLim[nd.flOff+c]
				for dgi := range s.dramKeys {
					tr := s.terms[nd.trOff+dgi]
					for h := 0; h < nHG; h++ {
						mem := dgi*nHG + h
						s.times[nd.tmOff+c*s.nMem+mem] =
							eng.MatmulTimeFromTerms(m, nd.flops, tc, fl, tr, s.terms[nd.tdOff+mem])
					}
				}
			}
		}
	case kindVector:
		fl := nd.vec.FLOPs()
		for v := range s.vecKeys {
			s.terms[nd.tcOff+v] = fl / s.vecDenom[v]
		}
		for h := range s.hbmKeys {
			s.terms[nd.tdOff+h] = nd.traffic / s.hbmDenom[h]
		}
		for v := range s.vecKeys {
			tc := s.terms[nd.tcOff+v]
			for h := range s.hbmKeys {
				s.times[nd.tmOff+v*s.nHG+h] =
					eng.VectorTimeFromTerms(nd.vec, tc, nd.traffic, s.terms[nd.tdOff+h])
			}
		}
	case kindAllReduce:
		for c, rep := range s.commRep {
			s.terms[nd.tcOff+c] = perf.RingAllReduceSec(cfgs[rep].DeviceBWGBs, s.tp, nd.ar.Bytes, eng.LinkLatencySec)
			s.times[nd.tmOff+c] = eng.AllReduceTimeFromComm(nd.ar, s.terms[nd.tcOff+c])
		}
	case kindTrivialComm:
		s.times[nd.tmOff] = perf.Time{Name: nd.ar.Name}
	}
}

// blockedTraffic returns perf.BlockedDRAMTraffic(capBytes, m.M, m.K, m.N,
// bpe), searching each distinct argument tuple once per evaluator. A
// sweep's windows each discover their own L2 groups, but they share a
// few capacities and one graph's matmul shapes, so most windows need only
// searches an earlier window already ran. The lock is held across the
// search: a worker that needs a tuple another is computing waits for it
// instead of repeating it.
func (e *Evaluator) blockedTraffic(capBytes float64, m perf.Matmul, bpe float64) float64 {
	key := l2Args{capBits: math.Float64bits(capBytes), m: m.M, k: m.K, n: m.N, bpeBits: math.Float64bits(bpe)}
	e.l2mu.Lock()
	defer e.l2mu.Unlock()
	if per, ok := e.l2[key]; ok {
		return per
	}
	per := perf.BlockedDRAMTraffic(capBytes, m.M, m.K, m.N, bpe)
	if e.l2 == nil {
		e.l2 = make(map[l2Args]float64)
	}
	e.l2[key] = per
	return per
}

// assemble runs the assembly loop over every design: it walks each
// design's nodes in phase order (the scalar summation order), storing its
// Times, and writes its result. Design d's op row is
// backing[d·stride:][:len(nodes)]; a sums-only sweep passes stride 0 and
// one scratch row, so both passes run this one loop. The design-outer
// loop writes each design's op row sequentially — the node-outer variant
// strided through the design-major backing one row apart per store and
// its cache misses dominated the whole sweep — and keeps the four phase
// accumulators in registers across the node walk.
//
//acr:hotpath
func (e *Evaluator) assemble(s *scratch, cfgs []arch.Config, g ir.Graph, backing []perf.Time, stride int, perOp bool, out *Outcome) {
	eng := e.Engine
	nodes, times, terms, feedLim := s.nodes, s.times, s.terms, s.feedLim
	nNodes, nHG, nMem, nPrefill := len(nodes), s.nHG, s.nMem, s.nPrefill
design:
	for d := range cfgs {
		if !s.ok[d] {
			continue
		}
		cg, dg, mem := int(s.cg[d]), int(s.dg[d]), int(s.mem[d])
		hg, ig, vg := int(s.hg[d]), int(s.ig[d]), int(s.vg[d])
		ops := backing[d*stride : d*stride+nNodes]
		var ttft, tbt, pfl, dfl float64
		for j := range nodes {
			nd := &nodes[j]
			switch nd.kind {
			case kindMatmul:
				if nd.tabled {
					ops[j] = times[nd.tmOff+cg*nMem+mem]
				} else {
					ops[j] = eng.MatmulTimeFromTerms(nd.mm, nd.flops,
						terms[nd.tcOff+cg], feedLim[nd.flOff+cg],
						terms[nd.trOff+dg], terms[nd.tdOff+mem])
				}
			case kindVector:
				ops[j] = times[nd.tmOff+vg*nHG+hg]
			case kindAllReduce:
				ops[j] = times[nd.tmOff+ig]
			case kindTrivialComm:
				ops[j] = times[nd.tmOff]
			case kindUnknown:
				// First unknown node in phase order wins, as in the scalar
				// simulator; the design's remaining nodes are skipped, and
				// its partial sums are never stored.
				//lint:ignore allochot setErr's error arena is allocated once, on the first failing design; the all-designs-valid steady state never reaches it
				out.setErr(d, len(cfgs), nd.err)
				continue design
			}
			t := &ops[j]
			if j < nPrefill {
				ttft += t.Seconds
				pfl += t.FLOPs
			} else {
				tbt += t.Seconds
				dfl += t.FLOPs
			}
		}
		r := &out.Results[d]
		r.Config = cfgs[d]
		r.Workload = g.Workload
		r.TTFTSeconds, r.TBTSeconds = ttft, tbt
		if perOp {
			base := d * stride
			r.PrefillOps = backing[base : base+nPrefill : base+nPrefill]
			r.DecodeOps = backing[base+nPrefill : base+nNodes : base+nNodes]
		} else {
			r.PrefillOps, r.DecodeOps = nil, nil
		}
		r.PrefillMFU, r.DecodeMFU = 0, 0
		peak := s.peak[cg]
		if ttft > 0 {
			r.PrefillMFU = pfl / (ttft * peak)
		}
		if tbt > 0 {
			r.DecodeMFU = dfl / (tbt * peak)
		}
		out.Done[d] = true
	}
}
