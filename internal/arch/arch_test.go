package arch

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestA100TPPMatchesDatasheet(t *testing.T) {
	a := A100()
	if err := a.Validate(); err != nil {
		t.Fatalf("A100 config invalid: %v", err)
	}
	// 108 SMs × 4 tensor cores × 256 MACs × 2 ops × 1.41 GHz = 311.9 TOPS;
	// the datasheet rounds to 312 TFLOPS FP16 tensor, TPP 4992.
	if got := a.TensorTOPS(); math.Abs(got-312) > 1 {
		t.Errorf("A100 TensorTOPS = %.2f, want ≈ 312", got)
	}
	if got := a.TPP(); math.Abs(got-4992) > 16 {
		t.Errorf("A100 TPP = %.1f, want ≈ 4992", got)
	}
}

func TestA100DerivedQuantities(t *testing.T) {
	a := A100()
	if got := a.MACsPerDevice(); got != 108*4*256 {
		t.Errorf("MACsPerDevice = %d, want %d", got, 108*4*256)
	}
	if got := a.L1BytesPerLane(); got != 192*1024/4 {
		t.Errorf("L1BytesPerLane = %d, want %d", got, 192*1024/4)
	}
	if got := a.L2Bytes(); got != 40<<20 {
		t.Errorf("L2Bytes = %d, want %d", got, 40<<20)
	}
	if a.L2BandwidthGBs() <= a.HBMBandwidthGBs {
		t.Errorf("L2 bandwidth %.0f GB/s should exceed HBM bandwidth %.0f GB/s",
			a.L2BandwidthGBs(), a.HBMBandwidthGBs)
	}
}

func TestMaxCoresForTPPPaperValues(t *testing.T) {
	// The paper caps TPP < 4800 by using 103 cores of the A100's per-core
	// configuration, yielding TPP 4759.
	cores, err := MaxCoresForTPP(4800, 4, 16, 16, A100ClockGHz)
	if err != nil {
		t.Fatal(err)
	}
	if cores != 103 {
		t.Errorf("MaxCoresForTPP(4800) = %d cores, want 103", cores)
	}
	cfg := A100().WithCores(cores)
	if tpp := cfg.TPP(); math.Abs(tpp-4759) > 5 {
		t.Errorf("103-core TPP = %.1f, want ≈ 4759", tpp)
	}
	if cfg.TPP() >= 4800 {
		t.Errorf("solved core count still reaches the limit: TPP %.1f", cfg.TPP())
	}
}

func TestMaxCoresForTPPBoundary(t *testing.T) {
	// One more core must cross the limit.
	for _, tpp := range []float64{1600, 2400, 4800} {
		for _, lanes := range []int{1, 2, 4, 8} {
			for _, dim := range []int{16, 32} {
				cores, err := MaxCoresForTPP(tpp, lanes, dim, dim, A100ClockGHz)
				if err != nil {
					// A single large core may legitimately exceed a small
					// TPP budget (e.g. 8 lanes of 32×32 at 1600 TPP).
					continue
				}
				c := Config{CoreCount: cores, LanesPerCore: lanes,
					SystolicDimX: dim, SystolicDimY: dim, ClockGHz: A100ClockGHz}
				if c.TPP() >= tpp {
					t.Errorf("lanes=%d dim=%d: %d cores has TPP %.1f ≥ %.0f",
						lanes, dim, cores, c.TPP(), tpp)
				}
				c.CoreCount++
				if c.TPP() < tpp {
					t.Errorf("lanes=%d dim=%d: %d cores is not maximal (TPP %.1f < %.0f)",
						lanes, dim, cores, c.TPP(), tpp)
				}
			}
		}
	}
}

func TestMaxCoresForTPPErrors(t *testing.T) {
	if _, err := MaxCoresForTPP(0, 4, 16, 16, 1.41); err == nil {
		t.Error("expected error for zero TPP limit")
	}
	if _, err := MaxCoresForTPP(100, 8, 32, 32, 1.41); err == nil {
		t.Error("expected error when one core exceeds the TPP limit")
	}
}

// TestMaxCoresForTPPRange pins the int range of the solved core count:
// a huge TPP budget that still leaves the count in range solves, and one
// past it, like a per-core MAC count that overflows an int, is refused
// with ErrOutOfRange instead of wrapping into a false "one core already
// reaches TPP" error.
func TestMaxCoresForTPPRange(t *testing.T) {
	cores, err := MaxCoresForTPP(1e18, 1, 16, 16, A100ClockGHz)
	if err != nil || cores < 8e16 {
		t.Errorf("MaxCoresForTPP(1e18) = %d, %v; want about 8.7e16 cores", cores, err)
	}
	for _, c := range []struct {
		tpp        float64
		lanes, dim int
	}{
		{1e30, 1, 16},
		{1e300, 1, 16},
		{math.Inf(1), 1, 16},
		{4800, 1, 4000000000},
		{4800, math.MaxInt / 2, 16},
	} {
		cores, err := MaxCoresForTPP(c.tpp, c.lanes, c.dim, c.dim, A100ClockGHz)
		if !errors.Is(err, ErrOutOfRange) {
			t.Errorf("MaxCoresForTPP(%g, %d lanes, %dx%d) = %d, %v; want ErrOutOfRange",
				c.tpp, c.lanes, c.dim, c.dim, cores, err)
		}
	}
}

func TestValidateRejectsBrokenConfigs(t *testing.T) {
	base := A100()
	mutations := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero cores", func(c *Config) { c.CoreCount = 0 }},
		{"negative lanes", func(c *Config) { c.LanesPerCore = -1 }},
		{"zero systolic X", func(c *Config) { c.SystolicDimX = 0 }},
		{"zero systolic Y", func(c *Config) { c.SystolicDimY = 0 }},
		{"zero vector width", func(c *Config) { c.VectorWidth = 0 }},
		{"zero L1", func(c *Config) { c.L1KB = 0 }},
		{"zero L2", func(c *Config) { c.L2MB = 0 }},
		{"zero HBM capacity", func(c *Config) { c.HBMCapacityGB = 0 }},
		{"zero HBM bandwidth", func(c *Config) { c.HBMBandwidthGBs = 0 }},
		{"negative device BW", func(c *Config) { c.DeviceBWGBs = -1 }},
		{"zero clock", func(c *Config) { c.ClockGHz = 0 }},
	}
	for _, m := range mutations {
		c := base
		m.mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid config", m.name)
		}
	}
	if err := base.Validate(); err != nil {
		t.Errorf("baseline should validate: %v", err)
	}
}

func TestProcessNonPlanar(t *testing.T) {
	for _, p := range []Process{ProcessN7, ProcessN5, ProcessN16} {
		if !p.NonPlanar() {
			t.Errorf("%v should be non-planar", p)
		}
	}
	if ProcessPlanar.NonPlanar() {
		t.Error("planar process reported as non-planar")
	}
	if ProcessN7.String() != "7nm" || ProcessPlanar.String() != "planar" {
		t.Errorf("unexpected Process strings: %v %v", ProcessN7, ProcessPlanar)
	}
	if !strings.Contains(Process(99).String(), "99") {
		t.Error("unknown process should print its numeric value")
	}
}

func TestTPPScalesLinearlyWithCores(t *testing.T) {
	// Property: TPP is exactly linear in core count, lane count, and array
	// area — the structural fact Eq. 1 relies on.
	f := func(cores, lanes, dim uint8) bool {
		c := int(cores%64) + 1
		l := int(lanes%8) + 1
		d := 8 * (int(dim%4) + 1)
		cfg := Config{CoreCount: c, LanesPerCore: l, SystolicDimX: d,
			SystolicDimY: d, ClockGHz: A100ClockGHz}
		unit := Config{CoreCount: 1, LanesPerCore: 1, SystolicDimX: d,
			SystolicDimY: d, ClockGHz: A100ClockGHz}
		return math.Abs(cfg.TPP()-unit.TPP()*float64(c*l)) < 1e-6*cfg.TPP()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWithHelpers(t *testing.T) {
	a := A100()
	b := a.WithCores(103)
	if b.CoreCount != 103 || a.CoreCount != 108 {
		t.Error("WithCores must not mutate the receiver")
	}
	if !strings.Contains(b.Name, "103c") {
		t.Errorf("WithCores should annotate name, got %q", b.Name)
	}
	if got := a.WithDeviceBW(400).DeviceBWGBs; got != 400 {
		t.Errorf("WithDeviceBW = %v", got)
	}
	if got := a.WithHBMBandwidth(3200).HBMBandwidthGBs; got != 3200 {
		t.Errorf("WithHBMBandwidth = %v", got)
	}
}

func TestStringMentionsKeyParameters(t *testing.T) {
	s := A100().String()
	for _, want := range []string{"108", "16x16", "192", "40", "499"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q: %s", want, s)
		}
	}
}
