// Package perf models operator execution time on devices built from the
// LLMCompass hardware template. It is the performance core of the
// reproduction: every latency the paper reports flows through this package.
//
// The model follows LLMCompass' structure:
//
//   - Operators run one at a time; each reads its inputs from HBM and writes
//     its outputs back to HBM (no inter-operator fusion), with the global
//     buffer (L2) serving as the within-operator working store.
//   - Matrix multiplications are tiled twice: an L2-level blocking that
//     determines HBM traffic, and an L1-level tiling (per lane) that
//     determines how fast the systolic arrays can be fed from L2.
//   - An operator's latency is the maximum of its compute-limited,
//     feed-limited, and HBM-limited times, plus a fixed launch overhead.
//   - Tensor-parallel collectives use a ring all-reduce across the device
//     interconnect.
//
// The consequences the paper's conclusions rest on all emerge from this
// structure: prefill is compute-bound (TPP-limited), decoding is HBM
// bandwidth-bound, small local buffers starve the systolic arrays, and
// device-interconnect bandwidth barely moves decode latency.
//
// # Resource-bound terms
//
// An operator's latency is the max of independent resource-bound terms, and
// each term reads only a few axes of the configuration: the compute/feed
// term never sees HBM or interconnect bandwidth, the DRAM term only sees L2
// capacity and the operand widths, the collective term only the link rate.
// Each term is an exported pure function, and a Time is assembled from its
// terms by the Engine's *FromTerms methods. The Engine times one design at
// a time and caches nothing; the batch evaluator (internal/batch) calls the
// same functions once per group of designs that share a term's axes, which
// is how a sweep avoids recomputing terms and why the two paths agree bit
// for bit.
package perf

import (
	"fmt"
	"math"

	"repro/internal/arch"
	"repro/internal/num"
)

// Op is any schedulable operator.
type Op interface {
	// OpName labels the operator in per-op latency breakdowns.
	OpName() string
}

// Matmul is a batched dense matrix multiplication C[b] = A[b] × B[b] with
// A of shape M×K and B of shape K×N, in FP16 with FP32 accumulation.
type Matmul struct {
	Name  string
	Batch int
	M     int
	K     int
	N     int
	// BBytesPerElem is the storage width of the B (weight) operand in
	// bytes; zero means the FP16 default of 2. Quantized weights (FP8/INT8
	// = 1) halve the operand's memory traffic without changing the
	// operation count — the memory-side benefit TPP's bitwidth multiplier
	// does not capture.
	BBytesPerElem int
}

// WeightBytesPerElem returns the effective weight storage width in bytes,
// resolving the zero value to its FP16 meaning of 2. Exposed so batch
// evaluators can feed the exact operand width the scalar path uses into
// the shared traffic helpers.
func (m Matmul) WeightBytesPerElem() float64 {
	if m.BBytesPerElem <= 0 {
		return 2
	}
	return float64(m.BBytesPerElem)
}

// OpName implements Op.
func (m Matmul) OpName() string { return m.Name }

// FLOPs returns the operation count (each multiply-accumulate is two ops).
func (m Matmul) FLOPs() float64 {
	return 2 * float64(m.Batch) * float64(m.M) * float64(m.K) * float64(m.N)
}

// Vector is an elementwise or row-reduction operator (Softmax, LayerNorm,
// GELU, SwiGLU, residual add, ...) characterised by its element count, the
// arithmetic per element, and its HBM read/write traffic.
type Vector struct {
	Name          string
	Elements      float64
	OpsPerElement float64
	ReadBytes     float64
	WriteBytes    float64
}

// OpName implements Op.
func (v Vector) OpName() string { return v.Name }

// FLOPs returns the vector operation count.
func (v Vector) FLOPs() float64 { return v.Elements * v.OpsPerElement }

// AllReduce is a tensor-parallel sum-reduction of Bytes across TP devices.
type AllReduce struct {
	Name  string
	Bytes float64
}

// OpName implements Op.
func (a AllReduce) OpName() string { return a.Name }

// Time is the simulated execution profile of one operator on one device of
// a tensor-parallel group.
type Time struct {
	Name string
	// Seconds is the operator latency: max of the bound components plus
	// launch overhead (communication is latency-bound, not overlapped).
	Seconds float64
	// ComputeSeconds is the systolic/vector compute-limited time.
	ComputeSeconds float64
	// DRAMSeconds is the HBM-traffic-limited time.
	DRAMSeconds float64
	// CommSeconds is interconnect time (all-reduce operators only).
	CommSeconds float64
	// FLOPs and DRAMBytes record the operator's work for MFU accounting.
	FLOPs     float64
	DRAMBytes float64
	// FeedLimited reports that the systolic arrays were starved by the
	// L2→L1 feed path rather than running at peak (small L1 / many lanes).
	FeedLimited bool
}

// Engine evaluates operators against a device configuration. It holds only
// model constants, so Engines are safe for concurrent use and may be
// built as composite literals; the zero value is not useful — use Default
// or populate every field.
type Engine struct {
	// DRAMEfficiency is the achievable fraction of peak HBM bandwidth for
	// streaming operator traffic.
	DRAMEfficiency float64
	// VectorEfficiency is the achievable fraction of peak vector FLOPs.
	VectorEfficiency float64
	// LaunchOverheadSec is the fixed per-operator dispatch cost.
	LaunchOverheadSec float64
	// LinkLatencySec is the per-hop interconnect latency for collectives.
	LinkLatencySec float64
	// L2FillFraction is the usable fraction of L2 for one operand block set
	// (the rest covers double buffering and metadata).
	L2FillFraction float64

	// Ablation switches (all false in the calibrated model; the "ablation"
	// experiment flips them to quantify what each mechanism contributes).

	// NaiveDRAMTraffic disables the L2 blocking search: every matmul
	// operand streams with worst-case reuse, as if the global buffer held
	// only one row of tiles.
	NaiveDRAMTraffic bool
	// NaiveL1Tiling disables the L1 tile search: lanes stage single
	// array-sized tiles with no reuse beyond the array registers.
	NaiveL1Tiling bool
}

// Default returns an Engine with the calibrated model constants.
func Default() *Engine {
	return &Engine{
		DRAMEfficiency:    0.82,
		VectorEfficiency:  0.70,
		LaunchOverheadSec: 4e-6,
		LinkLatencySec:    2e-6,
		L2FillFraction:    0.5,
	}
}

// Simulate returns the execution profile of op on cfg within a tp-way
// tensor-parallel group. The operator's dimensions must already be the
// per-device shard (model code is responsible for sharding).
func (e *Engine) Simulate(cfg arch.Config, tp int, op Op) (Time, error) {
	if err := cfg.Validate(); err != nil {
		return Time{}, err
	}
	if tp < 1 {
		return Time{}, fmt.Errorf("perf: tensor-parallel degree must be ≥ 1, got %d", tp)
	}
	return e.TimeOp(cfg, tp, op)
}

// TimeOp times op without re-validating cfg or tp. It exists for graph
// evaluation: sim.SimulateGraph validates the configuration once and then
// times every node through this entry point (Simulate validated per call,
// which was measurable across a sweep's thousands of operators).
func (e *Engine) TimeOp(cfg arch.Config, tp int, op Op) (Time, error) {
	switch o := op.(type) {
	case Matmul:
		return e.matmul(cfg, o), nil
	case Vector:
		return e.vector(cfg, o), nil
	case AllReduce:
		return e.allReduce(cfg, tp, o), nil
	default:
		return Time{}, fmt.Errorf("perf: unknown operator type %T", op)
	}
}

// NaiveL1BytesPerMAC returns the L2→L1 feed traffic per MAC when lanes
// stage single array-sized tiles with no reuse beyond the array registers
// — the NaiveL1Tiling ablation's cost model, shared by the scalar and
// batch paths so both compute bit-identical feed terms.
func NaiveL1BytesPerMAC(dimX, dimY int) float64 {
	return 2 * float64(dimX+dimY) / (float64(dimX) * float64(dimY))
}

// L1TileBytesPerMAC finds the best L1-level output tile (Mt×Nt with
// Kt-deep operand staging) for one lane and returns the L2→L1 feed traffic
// per MAC in bytes. The tile must fit double-buffered FP16 operand panels
// plus an FP32 accumulator panel in the lane's share of the local buffer:
//
//	2·2·Kt·(Mt+Nt) + 4·Mt·Nt ≤ L1 bytes per lane
//
// Bigger tiles amortise operand fetches over more MACs: feed bytes per MAC
// is 2(Mt+Nt)/(Mt·Nt), so halving the effective L1 per lane (more lanes or
// smaller L1) raises the feed bandwidth the arrays demand from L2 — the
// starvation mechanism behind the paper's L1 and lanes-per-core findings.
// It is a pure function of its arguments; the batch evaluator calls it once
// per feed group.
func L1TileBytesPerMAC(capBytes, dimX, dimY, m, n, k int) (bytesPerMAC float64) {
	mMax := num.CeilDiv(m, dimX) * dimX
	nMax := num.CeilDiv(n, dimY) * dimY
	best := math.Inf(1)
	for _, kt := range []int{16, 32, 64, 128} {
		if kt > k {
			kt = k
		}
		// Solve 4·kt·(t+t) + 4·t² ≤ cap for a square tile as the seed,
		// then rebalance Nt given the clamped Mt.
		disc := 64*float64(kt)*float64(kt) + 16*float64(capBytes)
		t := (-8*float64(kt) + math.Sqrt(disc)) / 8
		mt := int(t) / dimX * dimX
		if mt < dimX {
			mt = dimX
		}
		if mt > mMax {
			mt = mMax
		}
		// Nt from the capacity left after Mt: 4·kt·(Mt+Nt) + 4·Mt·Nt ≤ cap.
		den := 4*kt + 4*mt
		nt := (capBytes - 4*kt*mt) / den
		nt = nt / dimY * dimY
		if nt < dimY {
			nt = dimY
		}
		if nt > nMax {
			nt = nMax
		}
		if 4*kt*(mt+nt)+4*mt*nt > capBytes && (mt > dimX || nt > dimY) {
			continue // seed overshot and could not be repaired
		}
		bpm := 2 * float64(mt+nt) / (float64(mt) * float64(nt))
		if bpm < best {
			best = bpm
		}
	}
	if math.IsInf(best, 1) {
		// Even a single array tile does not fit: the lane runs from a
		// minimal staging buffer with no reuse beyond the array itself.
		best = NaiveL1BytesPerMAC(dimX, dimY) * 2
	}
	return best
}

// WorstCaseDRAMTraffic returns the per-batch-element HBM traffic in bytes
// when every matmul operand streams with worst-case reuse, as if the
// global buffer held only one row of tiles — the NaiveDRAMTraffic ablation
// and the degenerate-L2 fallback of the blocking search.
func WorstCaseDRAMTraffic(m, k, n int, bBytesPerElem float64) float64 {
	aBytes := 2 * float64(m) * float64(k)
	bBytes := bBytesPerElem * float64(k) * float64(n)
	cBytes := 2 * float64(m) * float64(n)
	return aBytes*float64(num.CeilDiv(n, 16)) + bBytes + cBytes
}

// BlockedDRAMTraffic returns the per-batch-element HBM traffic in bytes
// for one matmul under optimal rectangular L2 blocking within capBytes of
// usable global buffer: each candidate block (Mb, Nb, Kb) must fit its A,
// B and C panels, A is re-read once per N block column, B once per M block
// row, and partial C tiles spill and reload once per extra K block. It is
// a pure function of its arguments; the batch evaluator calls it once per
// L2 group.
func BlockedDRAMTraffic(capBytes float64, m, k, n int, bBytesPerElem float64) float64 {
	aBytes := 2 * float64(m) * float64(k)
	bBytes := bBytesPerElem * float64(k) * float64(n)
	cBytes := 2 * float64(m) * float64(n)
	if aBytes+bBytes+cBytes <= capBytes {
		return aBytes + bBytes + cBytes
	}
	best := math.Inf(1)
	for mb := 16; mb <= m*2; mb *= 2 {
		mbc := min(mb, m)
		nM := float64(num.CeilDiv(m, mbc))
		// The same nK ≥ 1 floor with nN at its minimum of 1 rules out the
		// whole Nb ladder at once; the one cheap footprint probe preserves
		// the exhaustion test on the smallest block this Mb admits.
		if aBytes+bBytes*nM+cBytes >= best {
			kc, nc := min(16, k), min(16, n)
			if 2*float64(mbc*kc+mbc*nc)+bBytesPerElem*float64(kc*nc) <= capBytes {
				continue
			}
			break
		}
		fitAny := false
		for nb := 16; nb <= n*2; nb *= 2 {
			nbc := min(nb, n)
			// nK ≥ 1 bounds any (Mb, Nb) candidate's traffic from below by
			// its K-independent terms; when even that floor cannot beat the
			// incumbent, the Kb scan is futile — but the footprint might
			// still fit, so the Nb ladder keeps going.
			nN := float64(num.CeilDiv(n, nbc))
			if aBytes*nN+bBytes*nM+cBytes >= best {
				if 2*float64(mbc*min(16, k)+mbc*nbc)+bBytesPerElem*float64(min(16, k)*nbc) <= capBytes {
					fitAny = true
					continue
				}
				break
			}
			// For fixed (Mb, Nb) the block footprint grows with Kb while
			// the traffic only shrinks (nK is non-increasing and the other
			// terms do not read Kb), so the largest fitting Kb on the
			// doubling ladder attains the minimum: find it with the cheap
			// footprint test and evaluate the traffic expression once.
			bestKbc := 0
			for kb := 16; kb <= k*2; kb *= 2 {
				kbc := min(kb, k)
				block := 2*float64(mbc*kbc+mbc*nbc) + bBytesPerElem*float64(kbc*nbc)
				if block > capBytes {
					break
				}
				bestKbc = kbc
			}
			if bestKbc == 0 {
				// The smallest Kb already overflows here, and the footprint
				// grows with Nb: no larger Nb can fit either.
				break
			}
			fitAny = true
			nK := float64(num.CeilDiv(k, bestKbc))
			traffic := aBytes*nN + bBytes*nM + cBytes*(2*nK-1)
			if traffic < best {
				best = traffic
			}
		}
		if !fitAny {
			// Even the (Mb, 16, 16) block overflows, and the footprint
			// grows with Mb: the search is exhausted.
			break
		}
	}
	if math.IsInf(best, 1) {
		// Degenerate L2: stream everything with worst-case reuse.
		best = WorstCaseDRAMTraffic(m, k, n, bBytesPerElem)
	}
	return best
}

// dramTraffic returns the BlockedDRAMTraffic solution for the matmul
// shard on cfg (or the worst-case stream under the ablation).
func (e *Engine) dramTraffic(cfg arch.Config, m, k, n int, bBytesPerElem float64) float64 {
	if e.NaiveDRAMTraffic {
		return WorstCaseDRAMTraffic(m, k, n, bBytesPerElem)
	}
	return BlockedDRAMTraffic(e.L2FillFraction*float64(cfg.L2Bytes()), m, k, n, bBytesPerElem)
}

// matmulCompute returns the joint compute/feed-limited time of m on cfg —
// the systolic-array rate degraded by edge/fill/tail utilisation, capped by
// the L2→L1 feed bandwidth of the L1 tiling (or of naive tiling under the
// ablation).
func (e *Engine) matmulCompute(cfg arch.Config, m Matmul) (float64, bool) {
	if e.NaiveL1Tiling {
		return MatmulComputeTime(cfg, m, NaiveL1BytesPerMAC(cfg.SystolicDimX, cfg.SystolicDimY))
	}
	return MatmulComputeTime(cfg, m, L1TileBytesPerMAC(cfg.L1BytesPerLane(), cfg.SystolicDimX, cfg.SystolicDimY, m.M, m.N, m.K))
}

// MatmulComputeTime returns the joint compute/feed-limited time of m on
// cfg given the L2→L1 feed traffic per MAC, plus whether the feed path was
// the binding resource. It reads only the compute-side configuration axes
// (core/lane/array geometry, clock, L2 feed bandwidth) and no engine
// constants, so it is shared verbatim by the per-design engine and the
// group-deduplicated batch evaluator — the two can never drift apart.
func MatmulComputeTime(cfg arch.Config, m Matmul, bytesPerMAC float64) (float64, bool) {
	macs := float64(m.Batch) * float64(m.M) * float64(m.K) * float64(m.N)
	peakMACs := float64(cfg.MACsPerDevice()) * cfg.ClockGHz * 1e9

	// Array utilisation: edge waste when M or N is not a multiple of the
	// array dimensions, pipeline fill over the K dimension, and the tail
	// wave when the tile count is not a multiple of the array count.
	utilEdge := float64(m.M) * float64(m.N) /
		(float64(num.CeilDiv(m.M, cfg.SystolicDimX)*cfg.SystolicDimX) *
			float64(num.CeilDiv(m.N, cfg.SystolicDimY)*cfg.SystolicDimY))
	utilFill := float64(m.K) / float64(m.K+cfg.SystolicDimX+cfg.SystolicDimY)
	arrays := cfg.CoreCount * cfg.LanesPerCore
	tiles := m.Batch * num.CeilDiv(m.M, cfg.SystolicDimX) * num.CeilDiv(m.N, cfg.SystolicDimY)
	waves := num.CeilDiv(tiles, arrays)
	utilTail := float64(tiles) / (float64(waves) * float64(arrays))

	computeRate := peakMACs * utilEdge * utilFill * utilTail

	// Feed limit: the arrays collectively demand bytesPerMAC from L2.
	l2BytesPerSec := cfg.L2BandwidthGBs() * 1e9
	feedRate := l2BytesPerSec / bytesPerMAC

	rate := computeRate
	feedLimited := false
	if feedRate < rate {
		rate = feedRate
		feedLimited = true
	}
	return macs / rate, feedLimited
}

// MatmulFLOPs returns the matmul's shard FLOP count — the FLOPs field of
// its Time, precomputed by callers of MatmulTimeFromTerms because it is
// constant per operator while the other terms vary per design.
func MatmulFLOPs(m Matmul) float64 {
	macs := float64(m.Batch) * float64(m.M) * float64(m.K) * float64(m.N)
	return 2 * macs
}

// MatmulTimeFromTerms assembles a matmul's final Time from its precomputed
// resource-bound terms: the shard FLOPs (MatmulFLOPs), the
// compute/feed-limited seconds (MatmulComputeTime), the total HBM traffic
// in bytes and the traffic-limited seconds. Both the scalar path and the
// batch evaluator finish every matmul through this one function, which is
// what makes their profiles bit-identical by construction.
func (e *Engine) MatmulTimeFromTerms(m Matmul, flops, tComputeSec float64, feedLimited bool, trafficBytes, tDRAMSec float64) Time {
	return Time{
		Name:           m.Name,
		Seconds:        max(tComputeSec, tDRAMSec) + e.LaunchOverheadSec,
		ComputeSeconds: tComputeSec,
		DRAMSeconds:    tDRAMSec,
		FLOPs:          flops,
		DRAMBytes:      trafficBytes,
		FeedLimited:    feedLimited,
	}
}

func (e *Engine) matmul(cfg arch.Config, m Matmul) Time {
	tCompute, feedLimited := e.matmulCompute(cfg, m)
	traffic := float64(m.Batch) * e.dramTraffic(cfg, m.M, m.K, m.N, m.WeightBytesPerElem())
	tDRAM := traffic / (cfg.HBMBandwidthGBs * 1e9 * e.DRAMEfficiency)
	return e.MatmulTimeFromTerms(m, MatmulFLOPs(m), tCompute, feedLimited, traffic, tDRAM)
}

// VectorTimeFromTerms assembles a vector operator's Time from its
// precomputed compute- and traffic-limited terms; see MatmulTimeFromTerms
// for why assembly is shared between the scalar and batch paths.
func (e *Engine) VectorTimeFromTerms(v Vector, tComputeSec, trafficBytes, tDRAMSec float64) Time {
	return Time{
		Name:           v.Name,
		Seconds:        max(tComputeSec, tDRAMSec) + e.LaunchOverheadSec,
		ComputeSeconds: tComputeSec,
		DRAMSeconds:    tDRAMSec,
		FLOPs:          v.FLOPs(),
		DRAMBytes:      trafficBytes,
	}
}

func (e *Engine) vector(cfg arch.Config, v Vector) Time {
	tCompute := v.FLOPs() / (cfg.VectorTFLOPS() * 1e12 * e.VectorEfficiency)
	traffic := v.ReadBytes + v.WriteBytes
	tDRAM := traffic / (cfg.HBMBandwidthGBs * 1e9 * e.DRAMEfficiency)
	return e.VectorTimeFromTerms(v, tCompute, traffic, tDRAM)
}

// RingAllReduceSec returns the wire-plus-hop-latency seconds of a ring
// all-reduce of bytes across tp devices: each device exchanges
// 2·(tp−1)/tp of the tensor over its interconnect, where deviceBWGBs is
// the aggregate bidirectional rate (each direction sustains half), plus
// 2·(tp−1) hops of link latency. Pure function shared by the per-design
// engine and the batch evaluator. Callers must handle the trivial
// tp == 1 / zero-byte case themselves.
func RingAllReduceSec(deviceBWGBs float64, tp int, bytes, linkLatencySec float64) float64 {
	perDirection := deviceBWGBs * 1e9 / 2
	wire := 2 * float64(tp-1) / float64(tp) * bytes / perDirection
	latency := float64(2*(tp-1)) * linkLatencySec
	return wire + latency
}

// AllReduceTimeFromComm assembles an all-reduce Time from its precomputed
// interconnect seconds; see MatmulTimeFromTerms for why assembly is shared.
func (e *Engine) AllReduceTimeFromComm(a AllReduce, commSec float64) Time {
	return Time{
		Name:        a.Name,
		Seconds:     commSec + e.LaunchOverheadSec,
		CommSeconds: commSec,
	}
}

// allReduce models a ring all-reduce via RingAllReduceSec.
func (e *Engine) allReduce(cfg arch.Config, tp int, a AllReduce) Time {
	if tp == 1 || a.Bytes == 0 {
		return Time{Name: a.Name}
	}
	return e.AllReduceTimeFromComm(a, RingAllReduceSec(cfg.DeviceBWGBs, tp, a.Bytes, e.LinkLatencySec))
}

// Roofline returns the device's arithmetic-intensity knee in FLOPs/byte:
// operators below it are HBM-bound, above it compute-bound. LLM decoding
// sits far below the knee for every configuration in the paper's sweep,
// which is why memory bandwidth — unregulated by the ACRs — dominates TBT.
func Roofline(cfg arch.Config) float64 {
	return cfg.TensorTOPS() * 1e12 / (cfg.HBMBandwidthGBs * 1e9)
}
