// Package arch describes accelerator hardware following the LLMCompass
// hardware template: a device holds multiple cores sharing a global buffer
// (L2) connected to off-chip HBM and a device-device interconnect; each core
// holds multiple lanes sharing a local buffer (L1); each lane pairs one
// systolic array with one vector unit.
//
// The package is purely descriptive: it defines the design-space coordinates
// the paper sweeps (systolic array dimensions, lanes per core, cores per
// device, cache sizes, memory and interconnect bandwidths) plus the derived
// quantities the Advanced Computing Rule regulates (TOPS, TPP).
package arch

import (
	"errors"
	"fmt"
	"math"
)

// Process identifies the manufacturing process node of a die. The October
// 2023 Advanced Computing Rule's Performance Density metric only counts die
// area manufactured on a non-planar transistor process (16 nm FinFET and
// below), so the process determines whether area is "applicable area".
type Process int

const (
	// ProcessN7 is a 7 nm-class FinFET node (the NVIDIA A100's GA100 die
	// process and the node LLMCompass' area/cost model is calibrated for).
	ProcessN7 Process = iota
	// ProcessN5 is a 5 nm-class FinFET node.
	ProcessN5
	// ProcessN16 is a 16 nm-class FinFET node (the oldest non-planar node).
	ProcessN16
	// ProcessPlanar is any planar-transistor node (28 nm and above). Dies on
	// planar processes contribute no applicable area under the October 2023
	// rule.
	ProcessPlanar
)

// String returns the conventional marketing name of the node.
func (p Process) String() string {
	switch p {
	case ProcessN7:
		return "7nm"
	case ProcessN5:
		return "5nm"
	case ProcessN16:
		return "16nm"
	case ProcessPlanar:
		return "planar"
	default:
		return fmt.Sprintf("Process(%d)", int(p))
	}
}

// NonPlanar reports whether the node uses non-planar (FinFET or GAA)
// transistors, which makes its die area "applicable area" for the October
// 2023 Performance Density calculation.
func (p Process) NonPlanar() bool { return p != ProcessPlanar }

// ReticleLimitMM2 is the approximate maximum single-die area manufacturable
// with current EUV lithography (§2.3 of the paper cites ~860 mm²).
const ReticleLimitMM2 = 860.0

// Config describes one accelerator device. The zero value is not a valid
// device; construct configs with composite literals (usually starting from
// A100() and overriding fields) and check them with Validate.
type Config struct {
	// Name labels the configuration in reports and plots.
	Name string

	// CoreCount is the number of cores per device (CD in Eq. 1).
	CoreCount int
	// LanesPerCore is the number of lanes sharing each core's local buffer
	// (LC in Eq. 1).
	LanesPerCore int
	// SystolicDimX and SystolicDimY are the dimensions of each lane's
	// systolic array; the array computes DimX*DimY MACs per cycle.
	SystolicDimX int
	SystolicDimY int
	// VectorWidth is the number of FP16 FMA lanes in each lane's vector
	// unit (used by Softmax/LayerNorm/activation operators).
	VectorWidth int

	// L1KB is each core's local buffer capacity in KiB, shared by all the
	// core's lanes.
	L1KB int
	// L2MB is the device-wide shared global buffer capacity in MiB.
	L2MB int

	// HBMCapacityGB is the off-chip memory capacity in GiB.
	HBMCapacityGB int
	// HBMBandwidthGBs is the aggregate off-chip memory bandwidth in GB/s
	// (2000 = 2 TB/s).
	HBMBandwidthGBs float64
	// DeviceBWGBs is the aggregate bidirectional device-device I/O transfer
	// rate in GB/s — the quantity the October 2022 rule thresholds at
	// 600 GB/s.
	DeviceBWGBs float64

	// ClockGHz is the device clock frequency.
	ClockGHz float64
	// Process is the manufacturing node of the compute die(s).
	Process Process
}

// ErrInvalidConfig wraps all validation failures reported by Validate.
var ErrInvalidConfig = errors.New("arch: invalid config")

// Validate checks that every structural parameter is physically
// meaningful. The checks run in a fixed order and the valid path performs
// no allocations — sweeps re-validate every design, so this sits on the
// evaluators' hot path.
func (c Config) Validate() error {
	var what string
	switch {
	case c.CoreCount <= 0:
		what = "core count must be positive"
	case c.LanesPerCore <= 0:
		what = "lanes per core must be positive"
	case !(c.SystolicDimX > 0 && c.SystolicDimY > 0):
		what = "systolic dimensions must be positive"
	case c.VectorWidth <= 0:
		what = "vector width must be positive"
	case c.L1KB <= 0:
		what = "L1 capacity must be positive"
	case c.L2MB <= 0:
		what = "L2 capacity must be positive"
	case c.HBMCapacityGB <= 0:
		what = "HBM capacity must be positive"
	case !(c.HBMBandwidthGBs > 0):
		what = "HBM bandwidth must be positive"
	case !(c.DeviceBWGBs >= 0):
		what = "device bandwidth must be non-negative"
	case !(c.ClockGHz > 0):
		what = "clock must be positive"
	default:
		return nil
	}
	return fmt.Errorf("%w: %s (config %q)", ErrInvalidConfig, what, c.Name)
}

// MACsPerLane returns the multiply-accumulate units in one systolic array.
func (c Config) MACsPerLane() int { return c.SystolicDimX * c.SystolicDimY }

// MACsPerCore returns the MAC units across all of one core's lanes.
func (c Config) MACsPerCore() int { return c.MACsPerLane() * c.LanesPerCore }

// MACsPerDevice returns the total systolic-array MAC units on the device —
// the FPU count constrained by Eq. 1 of the paper.
func (c Config) MACsPerDevice() int { return c.MACsPerCore() * c.CoreCount }

// TensorTOPS returns the peak dense FP16 tensor throughput in tera-ops per
// second, counting each multiply-accumulate as two operations, matching how
// the BIS guidelines count tensor operations when computing TPP.
func (c Config) TensorTOPS() float64 {
	return float64(c.MACsPerDevice()) * 2 * c.ClockGHz * 1e9 / 1e12
}

// VectorTFLOPS returns the peak FP16 vector throughput in teraflops,
// counting FMA as two operations.
func (c Config) VectorTFLOPS() float64 {
	units := float64(c.CoreCount * c.LanesPerCore * c.VectorWidth)
	return units * 2 * c.ClockGHz * 1e9 / 1e12
}

// OperandBits is the bitwidth of the FP16 operations used when computing
// TPP: TPP = TOPS × bitwidth, maximised over supported bitwidths. The
// template's systolic arrays are FP16, which dominates the product for all
// swept configurations.
const OperandBits = 16

// TPP returns the device's Total Processing Performance: peak tera-ops per
// second multiplied by the operation bitwidth, aggregated over all dies in
// the package, exactly as defined by the October 2022 Advanced Computing
// Rule.
func (c Config) TPP() float64 { return c.TensorTOPS() * OperandBits }

// L2BytesPerCyclePer128MACs is the modeled global-buffer (L2) bandwidth in
// bytes per cycle per 128 systolic MACs. Scaling L2 bandwidth with the
// compute it feeds reflects banked global buffers whose port count is sized
// to the array datapaths (an A100-like device gets 8640 B/cycle ≈ 12.2
// TB/s); it keeps same-TPP designs on an equal global-buffer footing so
// that local-buffer tiling — not core granularity — determines whether the
// arrays can be fed.
const L2BytesPerCyclePer128MACs = 10

// L2BandwidthGBs returns the device-wide global buffer bandwidth in GB/s.
func (c Config) L2BandwidthGBs() float64 {
	return float64(c.MACsPerDevice()) / 128 * L2BytesPerCyclePer128MACs * c.ClockGHz
}

// L1BytesPerCyclePerCore is the modeled local-buffer bandwidth per core per
// cycle, shared by the core's lanes.
const L1BytesPerCyclePerCore = 256

// L1BandwidthGBsPerCore returns one core's local-buffer bandwidth in GB/s.
func (c Config) L1BandwidthGBsPerCore() float64 {
	return float64(L1BytesPerCyclePerCore) * c.ClockGHz
}

// L1BytesPerLane returns the local-buffer capacity available to one lane in
// bytes: the core's L1 divided evenly among its lanes. Decreasing lane count
// therefore increases the effective private buffer per systolic array, the
// mechanism behind the paper's 1-lane-per-core TTFT result.
func (c Config) L1BytesPerLane() int {
	return c.L1KB * 1024 / c.LanesPerCore
}

// L2Bytes returns the global buffer capacity in bytes.
func (c Config) L2Bytes() int { return c.L2MB * 1 << 20 }

// String summarises the configuration in one line.
func (c Config) String() string {
	return fmt.Sprintf("%s: %d cores × %d lanes × %dx%d @ %.2f GHz, L1 %d KB, L2 %d MB, HBM %d GB @ %.1f GB/s, dev BW %.0f GB/s (TPP %.0f)",
		c.Name, c.CoreCount, c.LanesPerCore, c.SystolicDimX, c.SystolicDimY,
		c.ClockGHz, c.L1KB, c.L2MB, c.HBMCapacityGB, c.HBMBandwidthGBs,
		c.DeviceBWGBs, c.TPP())
}

// A100ClockGHz is the NVIDIA A100 boost clock the paper uses for all TPP
// calculations.
const A100ClockGHz = 1.41

// GA100DieAreaMM2 is the physical die area of the NVIDIA GA100 die. The
// paper uses this constant, rather than the area model, for the modeled
// A100 baseline.
const GA100DieAreaMM2 = 826.0

// A100 returns the paper's modeled NVIDIA A100 baseline: 108 enabled cores
// with 4 lanes of 16×16 FP16 systolic arrays at 1.41 GHz (TPP 4992),
// 192 KB L1 per core, 40 MB L2, 80 GB HBM at 2 TB/s, and 600 GB/s NVLink.
func A100() Config {
	return Config{
		Name:            "modeled-A100",
		CoreCount:       108,
		LanesPerCore:    4,
		SystolicDimX:    16,
		SystolicDimY:    16,
		VectorWidth:     32,
		L1KB:            192,
		L2MB:            40,
		HBMCapacityGB:   80,
		HBMBandwidthGBs: 2000,
		DeviceBWGBs:     600,
		ClockGHz:        A100ClockGHz,
		Process:         ProcessN7,
	}
}

// ErrOutOfRange wraps MaxCoresForTPP's refusal of arguments whose answer
// an int cannot hold: a per-core MAC count (lanes × dimX × dimY) or a
// core count above math.MaxInt.
var ErrOutOfRange = errors.New("arch: out of range")

// MaxCoresForTPP returns the largest core count such that a device with the
// given per-core configuration stays strictly below the TPP limit, i.e. the
// CD term of Eq. 1 solved for a TPP target. It returns an error if even a
// single core exceeds the limit, and one wrapping ErrOutOfRange if the
// per-core MAC count or the core count does not fit in an int.
func MaxCoresForTPP(tppLimit float64, lanesPerCore, dimX, dimY int, clockGHz float64) (int, error) {
	if tppLimit <= 0 || lanesPerCore <= 0 || dimX <= 0 || dimY <= 0 || clockGHz <= 0 {
		return 0, fmt.Errorf("%w: non-positive argument to MaxCoresForTPP", ErrInvalidConfig)
	}
	if dimX > math.MaxInt/dimY || lanesPerCore > math.MaxInt/(dimX*dimY) {
		return 0, fmt.Errorf("%w: %d lanes × %dx%d MACs per core exceed an int", ErrOutOfRange, lanesPerCore, dimX, dimY)
	}
	perCore := float64(lanesPerCore*dimX*dimY) * 2 * clockGHz * 1e9 / 1e12 * OperandBits
	// float64(math.MaxInt) is 2^63, the first value an int cannot hold;
	// the comparison also refuses a NaN or infinite quotient.
	q := math.Floor(tppLimit / perCore)
	if !(q < float64(math.MaxInt)) {
		return 0, fmt.Errorf("%w: TPP %g allows more than %d cores of %g TPP", ErrOutOfRange, tppLimit, math.MaxInt, perCore)
	}
	cores := int(q)
	for cores > 0 && float64(cores)*perCore >= tppLimit {
		cores--
	}
	if cores < 1 {
		return 0, fmt.Errorf("%w: one core of %d lanes × %dx%d already reaches TPP %.0f ≥ %.0f",
			ErrInvalidConfig, lanesPerCore, dimX, dimY, perCore, tppLimit)
	}
	return cores, nil
}

// WithCores returns a copy of c with the core count replaced and the name
// annotated.
func (c Config) WithCores(n int) Config {
	c.CoreCount = n
	c.Name = fmt.Sprintf("%s/%dc", c.Name, n)
	return c
}

// WithDeviceBW returns a copy of c with the device interconnect bandwidth
// replaced.
func (c Config) WithDeviceBW(gbs float64) Config {
	c.DeviceBWGBs = gbs
	return c
}

// WithHBMBandwidth returns a copy of c with the memory bandwidth replaced.
func (c Config) WithHBMBandwidth(gbs float64) Config {
	c.HBMBandwidthGBs = gbs
	return c
}
