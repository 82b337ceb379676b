// Package ir defines the operator-graph intermediate representation that
// connects the layers of the evaluation pipeline:
//
//	model.Workload --Lower--> ir.Graph --Backend.Time--> []perf.Time --sim--> metrics
//
// A Graph is the explicit interchange format between workload lowering and
// operator timing: a sequence of Nodes, each wrapping one schedulable
// operator (perf.Matmul, perf.Vector or perf.AllReduce), tagged with the
// inference phase it belongs to and a structural content hash. The hashes
// are name-invariant (two workloads that lower to the same operators hash
// identically regardless of display names) and sensitive to every
// simulation-relevant field, which makes them the canonical identity for
// result caches and the component-level memo tables in package perf.
//
// Timing is pluggable: any implementation of Backend can evaluate a Graph
// (the closed-form analytic engine via Analytic, the discrete-event tile
// scheduler via tilesim.Backend), which is what lets the differential
// harness drive two independent models through one code path.
package ir

import (
	"fmt"
	"math"

	"repro/internal/arch"
	"repro/internal/model"
	"repro/internal/perf"
)

// Phase identifies the inference phase a node executes in.
type Phase uint8

const (
	// Prefill is the prompt-processing phase (TTFT).
	Prefill Phase = iota
	// Decode is the token-generation phase (TBT).
	Decode
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case Prefill:
		return "prefill"
	case Decode:
		return "decode"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Node is one operator of a lowered workload graph.
type Node struct {
	// Op is the wrapped schedulable operator.
	Op perf.Op
	// Phase tags the inference phase the node belongs to.
	Phase Phase
	// Hash is the operator's structural content hash: it covers the
	// operator type and every dimension/traffic field but never display
	// names, so structurally identical nodes hash equal across renames.
	Hash uint64
}

// Graph is a lowered workload: the operator sequences of both inference
// phases for one standard Transformer layer, in execution order.
type Graph struct {
	// Workload is the workload the graph was lowered from.
	Workload model.Workload
	// Nodes holds the prefill nodes followed by the decode nodes, each in
	// execution order.
	Nodes []Node
}

// Lower is the lowering pass from a workload to its operator graph. It
// validates the workload and wraps the per-phase operator sequences built
// by the model package (the sharding arithmetic lives there, next to the
// model descriptions) into phase-tagged, content-hashed nodes.
func Lower(w model.Workload) (Graph, error) {
	if err := w.Validate(); err != nil {
		return Graph{}, err
	}
	prefill := w.PrefillOps()
	decode := w.DecodeOps()
	nodes := make([]Node, 0, len(prefill)+len(decode))
	for _, op := range prefill {
		nodes = append(nodes, Node{Op: op, Phase: Prefill, Hash: OpHash(op)})
	}
	for _, op := range decode {
		nodes = append(nodes, Node{Op: op, Phase: Decode, Hash: OpHash(op)})
	}
	return Graph{Workload: w, Nodes: nodes}, nil
}

// PhaseNodes returns the graph's nodes of one phase, in execution order.
func (g Graph) PhaseNodes(p Phase) []Node {
	out := make([]Node, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		if n.Phase == p {
			out = append(out, n)
		}
	}
	return out
}

// Fingerprint returns the graph's structural identity: a hash over every
// node (phase and content hash, in order) and every simulation-relevant
// workload field. Two graphs lowered from workloads that differ only in
// display names fingerprint identically; changing any operator dimension,
// the weight precision, the tensor-parallel degree or the layer count
// changes it.
//
// The raw workload fields are folded in alongside the node hashes because
// a few of them do not reach the operators: the layer count only scales
// full-model metrics, and integer sharding can collapse distinct field
// values onto identical per-device operators (e.g. KV-head counts that
// divide to the same per-device share). Including the fields keeps the
// fingerprint strictly field-sensitive, the contract FuzzPointKey pins.
func (g Graph) Fingerprint() uint64 {
	h := newHasher()
	h.word(WorkloadHash(g.Workload))
	for _, n := range g.Nodes {
		h.word(uint64(n.Phase))
		h.word(n.Hash)
	}
	return uint64(h)
}

// fnv64 implements FNV-1a over 8-byte words. The IR hashes are in-process
// cache identities, not persisted artifacts, so a fast non-cryptographic
// hash is the right tool (the previous SHA-256-over-strings cache key spent
// more time formatting than the lookup it guarded saved).
type fnv64 uint64

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func newHasher() fnv64 { return fnvOffset64 }

func (h *fnv64) word(v uint64) {
	x := uint64(*h)
	for i := 0; i < 8; i++ {
		x ^= v & 0xff
		x *= fnvPrime64
		v >>= 8
	}
	*h = fnv64(x)
}

func (h *fnv64) int(v int)       { h.word(uint64(int64(v))) }
func (h *fnv64) float(v float64) { h.word(math.Float64bits(v)) }

// Operator type tags. Distinct tags keep e.g. a Vector and an AllReduce
// with coincidentally equal byte counts from colliding.
const (
	tagMatmul    = 1
	tagVector    = 2
	tagAllReduce = 3
	tagUnknown   = 255
)

// OpHash returns the structural content hash of one operator: its type and
// every simulation-relevant field, excluding the display name. Equivalent
// encodings hash equal (a Matmul's zero BBytesPerElem hashes as its FP16
// meaning of 2). Operator types outside the IR vocabulary hash by type
// name only.
func OpHash(op perf.Op) uint64 {
	h := newHasher()
	switch o := op.(type) {
	case perf.Matmul:
		h.word(tagMatmul)
		h.int(o.Batch)
		h.int(o.M)
		h.int(o.K)
		h.int(o.N)
		b := o.BBytesPerElem
		if b <= 0 {
			b = 2 // zero means the FP16 default; hash the meaning, not the encoding
		}
		h.int(b)
	case perf.Vector:
		h.word(tagVector)
		h.float(o.Elements)
		h.float(o.OpsPerElement)
		h.float(o.ReadBytes)
		h.float(o.WriteBytes)
	case perf.AllReduce:
		h.word(tagAllReduce)
		h.float(o.Bytes)
	default:
		h.word(tagUnknown)
		for _, c := range fmt.Sprintf("%T", op) {
			h.word(uint64(c))
		}
	}
	return uint64(h)
}

// ConfigHash returns the canonical hash of every arch.Config field that
// influences simulation, area, cost and classification — everything except
// the display Name. Two configs with equal hashes produce identical
// results, so the hash is the config half of a result-cache key. It
// replaces the stringly sim.ConfigFingerprint.
func ConfigHash(cfg arch.Config) uint64 {
	h := newHasher()
	h.int(cfg.CoreCount)
	h.int(cfg.LanesPerCore)
	h.int(cfg.SystolicDimX)
	h.int(cfg.SystolicDimY)
	h.int(cfg.VectorWidth)
	h.int(cfg.L1KB)
	h.int(cfg.L2MB)
	h.int(cfg.HBMCapacityGB)
	h.float(cfg.HBMBandwidthGBs)
	h.float(cfg.DeviceBWGBs)
	h.float(cfg.ClockGHz)
	h.int(int(cfg.Process))
	return uint64(h)
}

// WorkloadHash returns the canonical hash of every model.Workload field
// that influences simulation, excluding the model's display name and with
// the zero WeightBits value normalised to its FP16 meaning. It is total —
// it never lowers the workload, so it is safe on unvalidated inputs — and
// replaces the stringly sim.WorkloadFingerprint.
func WorkloadHash(w model.Workload) uint64 {
	bits := w.WeightBits
	if bits == 0 {
		bits = 16
	}
	m := w.Model
	h := newHasher()
	h.int(m.Layers)
	h.int(m.Dim)
	h.int(m.FFNDim)
	h.int(m.Heads)
	h.int(m.KVHeads)
	h.int(int(m.Act))
	h.int(w.Batch)
	h.int(w.InputLen)
	h.int(w.OutputLen)
	h.int(w.TensorParallel)
	h.int(bits)
	return uint64(h)
}
