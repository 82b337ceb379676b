package batch

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/ir"
	"repro/internal/model"
	"repro/internal/perf"
	"repro/internal/sim"
)

// table5Grid hand-rolls the paper's 2304-design Table 5 sweep (the dse
// package owns the real grid; importing it here would cycle): 72 windows
// of 32 designs, each meeting only some of the four L2 sizes.
func table5Grid(tb testing.TB) []arch.Config {
	var cfgs []arch.Config
	for _, dim := range []int{4, 8, 16} {
		for _, lanes := range []int{1, 2, 4, 8} {
			cores, err := arch.MaxCoresForTPP(4800, lanes, dim, dim, arch.A100ClockGHz)
			if err != nil {
				tb.Fatal(err)
			}
			for _, l1 := range []int{32, 64, 128, 192} {
				for _, l2 := range []int{8, 16, 32, 40} {
					for _, hbm := range []float64{800, 1200, 1600, 2000} {
						for _, dev := range []float64{400, 500, 600} {
							cfgs = append(cfgs, arch.Config{
								Name:            "table5-grid",
								CoreCount:       cores,
								LanesPerCore:    lanes,
								SystolicDimX:    dim,
								SystolicDimY:    dim,
								VectorWidth:     32,
								L1KB:            l1,
								L2MB:            l2,
								HBMCapacityGB:   80,
								HBMBandwidthGBs: hbm,
								DeviceBWGBs:     dev,
								ClockGHz:        arch.A100ClockGHz,
								Process:         arch.ProcessN7,
							})
						}
					}
				}
			}
		}
	}
	return cfgs
}

// window is the size of the windows TestWindowsShareBlockedTraffic takes,
// dse's window size.
const window = 32

// TestWindowsShareBlockedTraffic drives the evaluator the way a dse sweep
// does — eight workers taking 32-design windows of one grid
// through one Evaluator, here with per-op backing where a sweep passes
// none, so the op times can be compared too — and pins that sharing the
// L2 blocking results across windows changes nothing: every op time,
// phase sum and MFU is
// bit-identical to one whole Sweep on a fresh evaluator, and the table
// ends with exactly one entry, equal to a fresh perf.BlockedDRAMTraffic
// call, per distinct argument tuple. CI's race-stress step runs it under
// -race.
func TestWindowsShareBlockedTraffic(t *testing.T) {
	cfgs := table5Grid(t)
	g, err := ir.Lower(model.PaperWorkload(model.GPT3_175B()))
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New().Engine
	ctx := context.Background()
	want, err := (&Evaluator{Engine: eng}).Sweep(ctx, cfgs, g)
	if err != nil {
		t.Fatal(err)
	}

	ev := &Evaluator{Engine: eng}
	got := Outcome{Results: make([]sim.Result, len(cfgs)), Done: make([]bool, len(cfgs))}
	const workers = 8
	errs := make([]error, workers)
	windows := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for lo := range windows {
				hi := min(lo+window, len(cfgs))
				out := Outcome{Results: got.Results[lo:hi], Done: got.Done[lo:hi]}
				if err := ev.SweepInto(ctx, cfgs[lo:hi], g, &out, make([]perf.Time, (hi-lo)*len(g.Nodes))); err != nil && errs[w] == nil {
					errs[w] = err
				}
			}
		}(w)
	}
	for lo := 0; lo < len(cfgs); lo += window {
		windows <- lo
	}
	close(windows)
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}

	differ := func(a, b float64) bool { return math.Float64bits(a) != math.Float64bits(b) }
	for d := range cfgs {
		if !got.Done[d] || !want.Done[d] {
			t.Fatalf("design %d: done %v windowed, %v whole", d, got.Done[d], want.Done[d])
		}
		a, b := got.Results[d], want.Results[d]
		if differ(a.TTFTSeconds, b.TTFTSeconds) || differ(a.TBTSeconds, b.TBTSeconds) ||
			differ(a.PrefillMFU, b.PrefillMFU) || differ(a.DecodeMFU, b.DecodeMFU) {
			t.Fatalf("design %d: phase sums or MFU differ: windowed %+v, whole %+v", d, a, b)
		}
		ga := append(append([]perf.Time(nil), a.PrefillOps...), a.DecodeOps...)
		gb := append(append([]perf.Time(nil), b.PrefillOps...), b.DecodeOps...)
		if len(ga) != len(gb) {
			t.Fatalf("design %d: %d ops windowed, %d whole", d, len(ga), len(gb))
		}
		for j := range ga {
			x, y := ga[j], gb[j]
			if x.Name != y.Name || x.FeedLimited != y.FeedLimited ||
				differ(x.Seconds, y.Seconds) || differ(x.ComputeSeconds, y.ComputeSeconds) ||
				differ(x.DRAMSeconds, y.DRAMSeconds) || differ(x.CommSeconds, y.CommSeconds) ||
				differ(x.FLOPs, y.FLOPs) || differ(x.DRAMBytes, y.DRAMBytes) {
				t.Fatalf("design %d op %d: windowed %+v, whole %+v", d, j, x, y)
			}
		}
	}

	tuples := make(map[l2Args]bool)
	for _, c := range cfgs {
		capBytes := eng.L2FillFraction * float64(c.L2Bytes())
		for _, n := range g.Nodes {
			if m, ok := n.Op.(perf.Matmul); ok {
				tuples[l2Args{math.Float64bits(capBytes), m.M, m.K, m.N, math.Float64bits(m.WeightBytesPerElem())}] = true
			}
		}
	}
	ev.l2mu.Lock()
	defer ev.l2mu.Unlock()
	if len(ev.l2) != len(tuples) {
		t.Fatalf("table holds %d entries, want one per distinct tuple: %d", len(ev.l2), len(tuples))
	}
	for k := range tuples {
		per, ok := ev.l2[k]
		if !ok {
			t.Fatalf("tuple %+v missing from the table", k)
		}
		fresh := perf.BlockedDRAMTraffic(math.Float64frombits(k.capBits), k.m, k.k, k.n, math.Float64frombits(k.bpeBits))
		if differ(per, fresh) {
			t.Fatalf("tuple %+v: table %v, fresh search %v", k, per, fresh)
		}
	}
	t.Logf("%d designs in %d windows shared %d L2 blocking results",
		len(cfgs), (len(cfgs)+window-1)/window, len(ev.l2))
}
