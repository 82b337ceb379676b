package perf

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/arch"
)

func mustSim(t *testing.T, e *Engine, cfg arch.Config, tp int, op Op) Time {
	t.Helper()
	tm, err := e.Simulate(cfg, tp, op)
	if err != nil {
		t.Fatalf("Simulate(%s): %v", op.OpName(), err)
	}
	return tm
}

func TestLargeMatmulIsComputeBoundNearPeak(t *testing.T) {
	e := Default()
	cfg := arch.A100()
	// A GPT-3-scale FFN matmul: overwhelmingly compute-bound, ≥ 70% of peak.
	m := Matmul{Name: "ffn", Batch: 1, M: 65536, K: 12288, N: 12288}
	tm := mustSim(t, e, cfg, 4, m)
	ideal := m.FLOPs() / (cfg.TensorTOPS() * 1e12)
	if tm.Seconds < ideal {
		t.Fatalf("matmul faster than peak: %.3f ms < ideal %.3f ms", tm.Seconds*1e3, ideal*1e3)
	}
	if tm.Seconds > ideal/0.7 {
		t.Errorf("large matmul should run ≥ 70%% of peak: got %.1f%%",
			ideal/tm.Seconds*100)
	}
	if tm.DRAMSeconds >= tm.ComputeSeconds {
		t.Error("large matmul should be compute-bound, not DRAM-bound")
	}
}

func TestDecodeGEMVIsMemoryBound(t *testing.T) {
	e := Default()
	cfg := arch.A100()
	// Decode-shape matmul: 32 rows against a big weight matrix. Its time
	// must be within 25% of the pure weight-streaming time and DRAM-bound.
	m := Matmul{Name: "dec", Batch: 1, M: 32, K: 12288, N: 12288}
	tm := mustSim(t, e, cfg, 4, m)
	if tm.ComputeSeconds >= tm.DRAMSeconds {
		t.Error("decode GEMV should be DRAM-bound")
	}
	stream := 2 * 12288 * 12288 / (cfg.HBMBandwidthGBs * 1e9 * e.DRAMEfficiency)
	if tm.DRAMSeconds < stream || tm.DRAMSeconds > stream*1.25 {
		t.Errorf("decode DRAM time %.3f ms, want within [%.3f, %.3f] ms (weights once)",
			tm.DRAMSeconds*1e3, stream*1e3, stream*1.25*1e3)
	}
}

func TestMatmulDRAMTrafficAtLeastCompulsory(t *testing.T) {
	// Property: DRAM traffic can never be below the compulsory traffic
	// A + B + C, and never worse than the degenerate no-reuse bound.
	e := Default()
	cfg := arch.A100()
	f := func(mi, ki, ni uint8) bool {
		m := (int(mi%64) + 1) * 64
		k := (int(ki%64) + 1) * 64
		n := (int(ni%64) + 1) * 64
		tm, err := e.Simulate(cfg, 1, Matmul{Name: "p", Batch: 1, M: m, K: k, N: n})
		if err != nil {
			return false
		}
		compulsory := 2 * float64(m*k+k*n+m*n)
		return tm.DRAMBytes >= compulsory*0.999
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSmallL1StarvesArrays(t *testing.T) {
	e := Default()
	big := arch.A100() // 192 KB L1, 4 lanes
	small := big
	small.L1KB = 32
	m := Matmul{Name: "ffn", Batch: 1, M: 65536, K: 12288, N: 12288}
	tb := mustSim(t, e, big, 4, m)
	ts := mustSim(t, e, small, 4, m)
	if !ts.FeedLimited {
		t.Error("32 KB L1 should leave the systolic arrays feed-limited")
	}
	if ts.Seconds <= tb.Seconds*1.15 {
		t.Errorf("32 KB L1 should slow the matmul ≥ 15%%: %.1f → %.1f ms",
			tb.Seconds*1e3, ts.Seconds*1e3)
	}
	if tb.FeedLimited {
		t.Error("192 KB L1 at 4 lanes should not be feed-limited")
	}
}

func TestFewerLanesImproveFeed(t *testing.T) {
	// Same total MACs, same L1 per core: 1 lane/core gets 4× the buffer per
	// array and must never be slower on a big matmul.
	e := Default()
	lanes4 := arch.A100()
	lanes1 := lanes4
	lanes1.LanesPerCore = 1
	lanes1.CoreCount = lanes4.CoreCount * 4
	m := Matmul{Name: "ffn", Batch: 1, M: 65536, K: 12288, N: 12288}
	t4 := mustSim(t, e, lanes4, 4, m)
	t1 := mustSim(t, e, lanes1, 4, m)
	if t1.Seconds > t4.Seconds*1.001 {
		t.Errorf("1 lane/core should not be slower: %.2f ms vs %.2f ms",
			t1.Seconds*1e3, t4.Seconds*1e3)
	}
}

func TestVectorOpMemoryBound(t *testing.T) {
	e := Default()
	cfg := arch.A100()
	// A softmax-scale vector op: traffic 18 GB, trivially memory-bound.
	v := Vector{Name: "softmax", Elements: 3e9, OpsPerElement: 12,
		ReadBytes: 12e9, WriteBytes: 6e9}
	tm := mustSim(t, e, cfg, 4, v)
	want := 18e9 / (cfg.HBMBandwidthGBs * 1e9 * e.DRAMEfficiency)
	if math.Abs(tm.Seconds-want-e.LaunchOverheadSec) > want*0.01 {
		t.Errorf("vector op time %.3f ms, want ≈ %.3f ms", tm.Seconds*1e3, want*1e3)
	}
	if tm.ComputeSeconds >= tm.DRAMSeconds {
		t.Error("softmax should be memory-bound")
	}
}

func TestAllReduceScaling(t *testing.T) {
	e := Default()
	cfg := arch.A100()
	ar := AllReduce{Name: "ar", Bytes: 1.6e9}
	t4 := mustSim(t, e, cfg, 4, ar)
	// Ring all-reduce: 2·(3/4)·1.6 GB over 300 GB/s per direction = 8 ms.
	want := 2 * 0.75 * 1.6e9 / (300e9)
	if math.Abs(t4.CommSeconds-want) > want*0.05 {
		t.Errorf("TP4 all-reduce = %.2f ms, want ≈ %.2f ms", t4.CommSeconds*1e3, want*1e3)
	}
	// TP1 collapses to zero.
	t1 := mustSim(t, e, cfg, 1, ar)
	if t1.Seconds != 0 {
		t.Errorf("TP1 all-reduce should be free, got %v", t1.Seconds)
	}
	// Doubling device bandwidth ~halves wire time.
	fast := cfg.WithDeviceBW(1200)
	tf := mustSim(t, e, fast, 4, ar)
	if r := t4.CommSeconds / tf.CommSeconds; r < 1.8 || r > 2.2 {
		t.Errorf("2× device BW should ~halve all-reduce: ratio %.2f", r)
	}
}

func TestAllReduceZeroBytes(t *testing.T) {
	e := Default()
	tm := mustSim(t, e, arch.A100(), 4, AllReduce{Name: "empty"})
	if tm.Seconds != 0 {
		t.Errorf("zero-byte all-reduce should be free, got %v", tm.Seconds)
	}
}

func TestSimulateRejectsBadInputs(t *testing.T) {
	e := Default()
	if _, err := e.Simulate(arch.Config{}, 1, Matmul{Name: "x", Batch: 1, M: 1, K: 1, N: 1}); err == nil {
		t.Error("expected error for invalid config")
	}
	if _, err := e.Simulate(arch.A100(), 0, Matmul{Name: "x", Batch: 1, M: 1, K: 1, N: 1}); err == nil {
		t.Error("expected error for TP 0")
	}
	var bogus fakeOp
	if _, err := e.Simulate(arch.A100(), 1, bogus); err == nil {
		t.Error("expected error for unknown operator type")
	}
}

type fakeOp struct{}

func (fakeOp) OpName() string { return "fake" }

func TestMemoryBandwidthScalesDecode(t *testing.T) {
	// Property: for a DRAM-bound matmul, time scales ~inversely with HBM
	// bandwidth.
	e := Default()
	base := arch.A100()
	m := Matmul{Name: "dec", Batch: 1, M: 32, K: 12288, N: 12288}
	t0 := mustSim(t, e, base, 1, m)
	t1 := mustSim(t, e, base.WithHBMBandwidth(4000), 1, m)
	r := (t0.Seconds - e.LaunchOverheadSec) / (t1.Seconds - e.LaunchOverheadSec)
	if r < 1.9 || r > 2.1 {
		t.Errorf("2× HBM BW should ~halve decode matmul: ratio %.2f", r)
	}
}

func TestMatmulMonotoneInWork(t *testing.T) {
	e := Default()
	cfg := arch.A100()
	f := func(scale uint8) bool {
		s := int(scale%4) + 1
		small := mustTime(e, cfg, Matmul{Name: "a", Batch: 1, M: 1024, K: 1024, N: 1024})
		large := mustTime(e, cfg, Matmul{Name: "b", Batch: 1, M: 1024 * s, K: 1024, N: 1024})
		return large >= small*0.999
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func mustTime(e *Engine, cfg arch.Config, op Op) float64 {
	tm, err := e.Simulate(cfg, 1, op)
	if err != nil {
		panic(err)
	}
	return tm.Seconds
}

func TestRoofline(t *testing.T) {
	knee := Roofline(arch.A100())
	// 312 TFLOPs / 2 TB/s = 156 FLOPs/byte.
	if math.Abs(knee-156) > 2 {
		t.Errorf("A100 roofline knee = %.1f, want ≈ 156", knee)
	}
	// Decode arithmetic intensity (~2 FLOPs/byte at batch 32 per weight
	// byte) sits far below the knee for every swept config: even the
	// lowest-TPP, highest-bandwidth corner stays compute-rich.
	low := arch.A100()
	low.CoreCount = 34 // ≈ 1600 TPP
	low.HBMBandwidthGBs = 3200
	if k := Roofline(low); k < 20 {
		t.Errorf("even the weakest swept design has knee %.1f ≥ 20", k)
	}
}

func TestTallSkinnyMatmulEdgeUtilisation(t *testing.T) {
	// M=1 on a 16-wide array wastes 15/16 of the rows; the compute time
	// must reflect that (≈ 16× the naive MAC count), though such shapes
	// are DRAM-bound in practice.
	e := Default()
	cfg := arch.A100()
	m := Matmul{Name: "gemv", Batch: 1, M: 1, K: 4096, N: 4096}
	tm := mustSim(t, e, cfg, 1, m)
	naive := float64(4096*4096) / (float64(cfg.MACsPerDevice()) * cfg.ClockGHz * 1e9)
	if tm.ComputeSeconds < naive*8 {
		t.Errorf("M=1 compute %.1f µs should pay ≥ 8× edge penalty over naive %.1f µs",
			tm.ComputeSeconds*1e6, naive*1e6)
	}
}

func TestDRAMTrafficCacheConsistency(t *testing.T) {
	// Repeated simulation of the same op must return identical results
	// (the memoised blocking search is deterministic).
	e := Default()
	cfg := arch.A100()
	m := Matmul{Name: "ffn", Batch: 4, M: 2048, K: 4096, N: 4096}
	first := mustSim(t, e, cfg, 1, m)
	for i := 0; i < 3; i++ {
		again := mustSim(t, e, cfg, 1, m)
		if again.Seconds != first.Seconds || again.DRAMBytes != first.DRAMBytes {
			t.Fatalf("non-deterministic simulation: %+v vs %+v", again, first)
		}
	}
}

func TestLargerL2ReducesDRAMTraffic(t *testing.T) {
	e := Default()
	small := arch.A100()
	small.L2MB = 8
	big := arch.A100()
	big.L2MB = 80
	m := Matmul{Name: "ffn", Batch: 1, M: 65536, K: 12288, N: 12288}
	ts := mustSim(t, e, small, 1, m)
	tb := mustSim(t, e, big, 1, m)
	if tb.DRAMBytes >= ts.DRAMBytes {
		t.Errorf("80 MB L2 should cut matmul DRAM traffic: %.2f GB vs %.2f GB",
			tb.DRAMBytes/1e9, ts.DRAMBytes/1e9)
	}
}

func TestConcurrentSimulateIsSafe(t *testing.T) {
	e := Default()
	cfg := arch.A100()
	done := make(chan Time, 16)
	for i := 0; i < 16; i++ {
		go func(i int) {
			tm, _ := e.Simulate(cfg, 4, Matmul{Name: "c", Batch: 1, M: 1024 + i, K: 4096, N: 4096})
			done <- tm
		}(i)
	}
	for i := 0; i < 16; i++ {
		if tm := <-done; tm.Seconds <= 0 {
			t.Fatal("concurrent simulation returned a zero time")
		}
	}
}

func TestAblationSwitches(t *testing.T) {
	cfg := arch.A100()
	m := Matmul{Name: "ffn", Batch: 1, M: 65536, K: 12288, N: 12288}

	base := Default()
	naive := Default()
	naive.NaiveDRAMTraffic = true
	tb := mustSim(t, base, cfg, 1, m)
	tn := mustSim(t, naive, cfg, 1, m)
	if tn.DRAMBytes <= tb.DRAMBytes*2 {
		t.Errorf("disabling L2 blocking should blow DRAM traffic up: %.1f vs %.1f GB",
			tn.DRAMBytes/1e9, tb.DRAMBytes/1e9)
	}

	starved := Default()
	starved.NaiveL1Tiling = true
	ts := mustSim(t, starved, cfg, 1, m)
	if !ts.FeedLimited {
		t.Error("naive L1 tiling should starve the arrays")
	}
	if ts.ComputeSeconds <= tb.ComputeSeconds {
		t.Error("naive L1 tiling should slow the compute-limited time")
	}
}

// timeOpProbes is a spread of operator shapes through every timing term:
// compute-bound and memory-bound matmuls, a quantized-weight matmul, a
// vector op and a collective.
func timeOpProbes() []Op {
	return []Op{
		Matmul{Name: "prefill-gemm", Batch: 1, M: 65536, K: 12288, N: 3072},
		Matmul{Name: "decode-gemm", Batch: 1, M: 32, K: 12288, N: 3072},
		Matmul{Name: "quant-gemm", Batch: 1, M: 32, K: 12288, N: 3072, BBytesPerElem: 1},
		Matmul{Name: "attn-score", Batch: 768, M: 2048, K: 128, N: 2048},
		Vector{Name: "softmax", Elements: 3.2e8, OpsPerElement: 5, ReadBytes: 6.4e8, WriteBytes: 6.4e8},
		AllReduce{Name: "allreduce", Bytes: 1.6e8},
	}
}

// TestTimeOpMatchesSimulate: the unvalidated graph entry point must time
// identically to Simulate on valid inputs.
func TestTimeOpMatchesSimulate(t *testing.T) {
	e := Default()
	cfg := arch.A100()
	for _, op := range timeOpProbes() {
		a, err := e.TimeOp(cfg, 4, op)
		if err != nil {
			t.Fatal(err)
		}
		b, err := e.Simulate(cfg, 4, op)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: TimeOp %+v != Simulate %+v", op.OpName(), a, b)
		}
	}
	if _, err := e.TimeOp(cfg, 1, nil); err == nil {
		t.Error("TimeOp should reject unknown operator types")
	}
}
