package dse

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/model"
)

// FuzzPointKey checks the two contracts the point store depends on, over
// arbitrary configurations and workloads:
//
//  1. The display name is the ONLY field excluded from the key — renaming a
//     config must not change it, and a zero WeightBits must key identically
//     to its explicit FP16 meaning.
//  2. Changing any simulation-relevant field must change the key. A
//     collision here would silently serve one design's latencies as
//     another's.
//
// All inputs are integers so that the +1 mutations below are guaranteed to
// produce a genuinely different field value (no NaN or rounding traps).
func FuzzPointKey(f *testing.F) {
	f.Add(uint16(108), uint8(4), uint8(16), uint16(192), uint16(40), uint16(1555), uint16(4), uint16(2048), "seed")
	f.Add(uint16(1), uint8(1), uint8(4), uint16(32), uint16(8), uint16(100), uint16(1), uint16(1), "")
	f.Add(uint16(4096), uint8(8), uint8(32), uint16(512), uint16(128), uint16(9000), uint16(64), uint16(8192), "big")
	// IR-hash era seeds: the §4.2 compliant-optimum shape, misaligned odd
	// sizes (exercise every hashed field at non-round values), and the
	// Table 5 restricted floor.
	f.Add(uint16(102), uint8(1), uint8(15), uint16(63), uint16(63), uint16(3199), uint16(31), uint16(2047), "compliant-optimum")
	f.Add(uint16(215), uint8(6), uint8(30), uint16(1022), uint16(78), uint16(2399), uint16(15), uint16(4095), "odd-sizes")
	f.Add(uint16(575), uint8(0), uint8(3), uint16(31), uint16(7), uint16(799), uint16(0), uint16(0), "table5-floor")
	f.Fuzz(func(t *testing.T, cores uint16, lanes, dim uint8, l1, l2, hbmBW, batch, inLen uint16, name string) {
		cfg := arch.Config{
			Name:            "fuzz-base",
			CoreCount:       int(cores) + 1,
			LanesPerCore:    int(lanes) + 1,
			SystolicDimX:    int(dim) + 1,
			SystolicDimY:    int(dim) + 1,
			VectorWidth:     32,
			L1KB:            int(l1) + 1,
			L2MB:            int(l2) + 1,
			HBMCapacityGB:   40,
			HBMBandwidthGBs: float64(hbmBW) + 1,
			DeviceBWGBs:     600,
			ClockGHz:        1.41,
			Process:         arch.ProcessN7,
		}
		w := model.PaperWorkload(model.GPT3_175B())
		w.Batch = int(batch) + 1
		w.InputLen = int(inLen) + 1

		key := PointKey(cfg, w)

		renamed := cfg
		renamed.Name = name
		if PointKey(renamed, w) != key {
			t.Errorf("renaming %q -> %q changed the cache key", cfg.Name, name)
		}

		zeroBits, fp16 := w, w
		zeroBits.WeightBits = 0
		fp16.WeightBits = 16
		if PointKey(cfg, zeroBits) != PointKey(cfg, fp16) {
			t.Error("WeightBits 0 and 16 must key identically (zero means FP16)")
		}

		mutations := map[string]arch.Config{}
		add := func(field string, mutate func(*arch.Config)) {
			m := cfg
			mutate(&m)
			mutations[field] = m
		}
		add("CoreCount", func(c *arch.Config) { c.CoreCount++ })
		add("LanesPerCore", func(c *arch.Config) { c.LanesPerCore++ })
		add("SystolicDimX", func(c *arch.Config) { c.SystolicDimX++ })
		add("SystolicDimY", func(c *arch.Config) { c.SystolicDimY++ })
		add("VectorWidth", func(c *arch.Config) { c.VectorWidth++ })
		add("L1KB", func(c *arch.Config) { c.L1KB++ })
		add("L2MB", func(c *arch.Config) { c.L2MB++ })
		add("HBMCapacityGB", func(c *arch.Config) { c.HBMCapacityGB++ })
		add("HBMBandwidthGBs", func(c *arch.Config) { c.HBMBandwidthGBs++ })
		add("DeviceBWGBs", func(c *arch.Config) { c.DeviceBWGBs++ })
		add("ClockGHz", func(c *arch.Config) { c.ClockGHz++ })
		add("Process", func(c *arch.Config) { c.Process = arch.ProcessN5 })
		for field, m := range mutations {
			if PointKey(m, w) == key {
				t.Errorf("changing %s did not change the cache key", field)
			}
		}

		wMuts := map[string]model.Workload{}
		addW := func(field string, mutate func(*model.Workload)) {
			m := w
			mutate(&m)
			wMuts[field] = m
		}
		addW("Batch", func(x *model.Workload) { x.Batch++ })
		addW("InputLen", func(x *model.Workload) { x.InputLen++ })
		addW("OutputLen", func(x *model.Workload) { x.OutputLen++ })
		addW("TensorParallel", func(x *model.Workload) { x.TensorParallel++ })
		addW("WeightBits", func(x *model.Workload) { x.WeightBits = 8 })
		addW("Model.Layers", func(x *model.Workload) { x.Model.Layers++ })
		addW("Model.Dim", func(x *model.Workload) { x.Model.Dim++ })
		addW("Model.FFNDim", func(x *model.Workload) { x.Model.FFNDim++ })
		addW("Model.Heads", func(x *model.Workload) { x.Model.Heads++ })
		addW("Model.KVHeads", func(x *model.Workload) { x.Model.KVHeads++ })
		for field, m := range wMuts {
			if PointKey(cfg, m) == key {
				t.Errorf("changing workload %s did not change the cache key", field)
			}
		}
	})
}
