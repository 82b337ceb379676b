// Package search explores accelerator design spaces adaptively. Where
// package dse enumerates the paper's fixed Table 3/5 grids (512–2304
// designs), this package describes continuous/mixed bounded spaces —
// systolic dimensions, lane counts, cache sizes, HBM stacks and
// bandwidths, interconnect bandwidth, process node, TPP budget — and
// drives seedable multi-objective engines (NSGA-II, simulated annealing,
// coordinate pattern search) over them, with the exhaustive grid sweep
// available through the same Explorer interface as the golden oracle.
//
// Every candidate genome snaps to a legal arch.Config and evaluates
// through the memoized dse pipeline, so each unique design is simulated
// once, policy-filtered, and span-traced; revisits are archive hits that
// cost no evaluation budget. On spaces built from the paper's grids the
// engines' Pareto fronts are pinned against the exhaustive front (the
// oracle tests), which is what licenses pointing the same engines at
// 10^9+-point spaces — like the Jan-2025 scenario — that enumeration can
// never cover.
package search

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"

	"repro/internal/arch"
	"repro/internal/dse"
	"repro/internal/num"
)

// Role identifies which arch.Config coordinate an Axis controls.
type Role int

const (
	// RoleSystolicDim sets both systolic array dimensions (square arrays,
	// as the paper sweeps them).
	RoleSystolicDim Role = iota
	// RoleLanes sets lanes per core.
	RoleLanes
	// RoleL1KB and RoleL2MB set the cache capacities.
	RoleL1KB
	RoleL2MB
	// RoleHBMBandwidthGBs sets the off-chip memory bandwidth.
	RoleHBMBandwidthGBs
	// RoleDeviceBWGBs sets the device interconnect bandwidth.
	RoleDeviceBWGBs
	// RoleHBMStacks sets the HBM stack count; capacity is
	// stacks × Space.HBMStackGB.
	RoleHBMStacks
	// RoleTPPBudget overrides the space's fixed TPP target per point, so
	// engines can trade compute against the other axes.
	RoleTPPBudget
	// RoleProcess selects the manufacturing node (value = arch.Process).
	RoleProcess
)

// String names the role for config labels and diagnostics.
func (r Role) String() string {
	switch r {
	case RoleSystolicDim:
		return "sd"
	case RoleLanes:
		return "ln"
	case RoleL1KB:
		return "l1"
	case RoleL2MB:
		return "l2"
	case RoleHBMBandwidthGBs:
		return "hbm"
	case RoleDeviceBWGBs:
		return "dev"
	case RoleHBMStacks:
		return "stk"
	case RoleTPPBudget:
		return "tpp"
	case RoleProcess:
		return "proc"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// Axis is one bounded design-space coordinate: an ascending list of
// legal levels a genome coordinate snaps onto. Discrete grid axes list
// their exact values; continuous axes are pre-quantised by RangeAxis.
type Axis struct {
	Role Role
	// Values are the legal levels, ascending.
	Values []float64
}

// IntAxis builds an axis from integer levels.
func IntAxis(role Role, values ...int) Axis {
	vs := make([]float64, len(values))
	for i, v := range values {
		vs[i] = float64(v)
	}
	return Axis{Role: role, Values: vs}
}

// FloatAxis builds an axis from explicit levels.
func FloatAxis(role Role, values ...float64) Axis {
	return Axis{Role: role, Values: append([]float64(nil), values...)}
}

// RangeAxis quantises [lo, hi] into levels spaced by step (inclusive of
// hi when it lands on a step). This is how continuous axes — bandwidths,
// TPP budgets — become snappable.
func RangeAxis(role Role, lo, hi, step float64) Axis {
	if step <= 0 || hi < lo {
		return Axis{Role: role, Values: []float64{lo}}
	}
	n := int(math.Floor((hi-lo)/step)) + 1
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = lo + float64(i)*step
	}
	return Axis{Role: role, Values: vs}
}

// Levels returns the number of legal values on the axis.
func (a Axis) Levels() int { return len(a.Values) }

// Snap maps a unit-interval coordinate onto a level index: the interval
// is split into equal-width bins, one per level, so every legal value is
// reachable and the mapping is total (out-of-range coordinates clamp).
func (a Axis) Snap(u float64) int {
	n := len(a.Values)
	if n == 0 {
		return 0
	}
	i := int(num.Clamp01(u) * float64(n))
	if i >= n {
		i = n - 1
	}
	return i
}

// Unit returns the bin-centre unit coordinate of a level index, the
// inverse of Snap up to bin resolution.
func (a Axis) Unit(i int) float64 {
	n := len(a.Values)
	if n <= 1 {
		return 0.5
	}
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return (float64(i) + 0.5) / float64(n)
}

// Genome is one candidate design in unit-cube coordinates, one value per
// space axis. Engines vary genomes; Space.Decode snaps them to legal
// configurations.
type Genome []float64

// Space is a bounded, snappable design space. Axes vary per point; the
// remaining fields are fixed across the space (mirroring how the paper's
// grids fix capacity and clock).
type Space struct {
	Name string
	Axes []Axis

	// TPPTarget is the per-design TPP budget core count is solved
	// against (Eq. 1), unless a RoleTPPBudget axis overrides it.
	TPPTarget float64
	// HBMCapacityGB is the fixed memory capacity, unless a RoleHBMStacks
	// axis derives it as stacks × HBMStackGB.
	HBMCapacityGB int
	// HBMStackGB is the per-stack capacity used with RoleHBMStacks;
	// 0 means 16 GB (an HBM3-class stack).
	HBMStackGB int
	// ClockGHz and VectorWidth are fixed; 0 means the A100 values.
	ClockGHz    float64
	VectorWidth int
}

// Dims returns the number of axes.
func (s Space) Dims() int { return len(s.Axes) }

// Size returns the number of lattice points as a float64 (large spaces
// overflow int).
func (s Space) Size() float64 {
	n := 1.0
	for _, a := range s.Axes {
		n *= float64(a.Levels())
	}
	return n
}

// Indices snaps a genome onto per-axis level indices.
func (s Space) Indices(g Genome) []int {
	idx := make([]int, len(s.Axes))
	for i, a := range s.Axes {
		if i < len(g) {
			idx[i] = a.Snap(g[i])
		}
	}
	return idx
}

// GenomeAt returns the bin-centre genome for per-axis level indices, the
// inverse of Indices.
func (s Space) GenomeAt(idx []int) Genome {
	g := make(Genome, len(s.Axes))
	for i, a := range s.Axes {
		j := 0
		if i < len(idx) {
			j = idx[i]
		}
		g[i] = a.Unit(j)
	}
	return g
}

// Decode snaps a genome to the nearest legal configuration. It errors
// when the genome's dimensionality is wrong or the snapped combination
// admits no device under the TPP budget (a single core already exceeds
// it) — engines treat such points as infeasible without spending
// evaluation budget.
func (s Space) Decode(g Genome) (arch.Config, error) {
	if len(g) != len(s.Axes) {
		return arch.Config{}, fmt.Errorf("search: genome has %d coordinates, space %q has %d axes",
			len(g), s.Name, len(s.Axes))
	}
	var buf [16]int // room for every axis role; a longer genome spills to the heap
	idx := buf[:0]
	for i, a := range s.Axes {
		idx = append(idx, a.Snap(g[i]))
	}
	return s.At(idx)
}

// At materialises the configuration at explicit per-axis level indices.
func (s Space) At(idx []int) (arch.Config, error) {
	if len(idx) != len(s.Axes) {
		return arch.Config{}, fmt.Errorf("search: %d indices for %d axes in space %q",
			len(idx), len(s.Axes), s.Name)
	}
	dim, lanes := 16, 4
	l1KB, l2MB := 192, 40
	hbmBWGBs, devBWGBs := 2000.0, 600.0
	tppTarget := s.TPPTarget
	capacityGB := s.HBMCapacityGB
	process := arch.ProcessN7
	clockGHz := s.ClockGHz
	if clockGHz == 0 {
		clockGHz = arch.A100ClockGHz
	}
	vector := s.VectorWidth
	if vector == 0 {
		vector = 32
	}
	stackGB := s.HBMStackGB
	if stackGB == 0 {
		stackGB = 16
	}
	// The label renders each level as "/<role><%g of value>" (appendLevel).
	var buf [128]byte
	label := append(buf[:0], s.Name...)
	for i, a := range s.Axes {
		j := idx[i]
		if j < 0 || j >= a.Levels() {
			return arch.Config{}, fmt.Errorf("search: index %d out of range for %d-level axis %s",
				j, a.Levels(), a.Role)
		}
		v := a.Values[j]
		label = append(label, '/')
		label = append(label, a.Role.String()...)
		label = appendLevel(label, v)
		switch a.Role {
		case RoleSystolicDim:
			dim = int(v)
		case RoleLanes:
			lanes = int(v)
		case RoleL1KB:
			l1KB = int(v)
		case RoleL2MB:
			l2MB = int(v)
		case RoleHBMBandwidthGBs:
			hbmBWGBs = v
		case RoleDeviceBWGBs:
			devBWGBs = v
		case RoleHBMStacks:
			capacityGB = int(v) * stackGB
		case RoleTPPBudget:
			tppTarget = v
		case RoleProcess:
			process = arch.Process(int(v))
		}
	}
	cores, err := arch.MaxCoresForTPP(tppTarget, lanes, dim, dim, clockGHz)
	if err != nil {
		return arch.Config{}, err
	}
	if capacityGB <= 0 {
		capacityGB = 80
	}
	return arch.Config{
		Name:            string(label),
		CoreCount:       cores,
		LanesPerCore:    lanes,
		SystolicDimX:    dim,
		SystolicDimY:    dim,
		VectorWidth:     vector,
		L1KB:            l1KB,
		L2MB:            l2MB,
		HBMCapacityGB:   capacityGB,
		HBMBandwidthGBs: hbmBWGBs,
		DeviceBWGBs:     devBWGBs,
		ClockGHz:        clockGHz,
		Process:         process,
	}, nil
}

// appendLevel appends v in strconv's shortest 'g' form, the same bytes
// as fmt's %g. An integral level under 1e6 in magnitude, other than −0,
// has neither exponent nor fraction in that form, so strconv.AppendInt
// writes those bytes without formatting a float; every jan2025 level is
// one.
func appendLevel(b []byte, v float64) []byte {
	if _, frac := math.Modf(v); frac == 0 && math.Abs(v) < 1e6 && (v != 0 || !math.Signbit(v)) {
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// FromGrid wraps one of the paper's enumeration grids as a Space whose
// lattice coincides exactly with grid.Expand() (same value sets, same
// core-count solving), so adaptive engines and the exhaustive sweep
// explore the identical set of designs — the precondition for the
// oracle tests.
func FromGrid(g dse.Grid) Space {
	return Space{
		Name: "space/" + g.Name,
		Axes: []Axis{
			IntAxis(RoleSystolicDim, g.SystolicDims...),
			IntAxis(RoleLanes, g.LanesPerCore...),
			IntAxis(RoleL1KB, g.L1KB...),
			IntAxis(RoleL2MB, g.L2MB...),
			FloatAxis(RoleHBMBandwidthGBs, g.HBMBandwidthGBs...),
			FloatAxis(RoleDeviceBWGBs, g.DeviceBWGBs...),
		},
		TPPTarget:     g.TPPTarget,
		HBMCapacityGB: g.HBMCapacityGB,
		ClockGHz:      g.ClockGHz,
	}
}

// Fingerprint returns a content hash of the space — name excluded, every
// lattice-determining field included — used by DeriveSeed so "seed 0"
// runs are deterministic per (engine, budget, space).
func (s Space) Fingerprint() uint64 {
	h := fnv.New64a()
	word := func(u uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	word(math.Float64bits(s.TPPTarget))
	word(uint64(s.HBMCapacityGB))
	word(uint64(s.HBMStackGB))
	word(math.Float64bits(s.ClockGHz))
	word(uint64(s.VectorWidth))
	for _, a := range s.Axes {
		word(uint64(a.Role))
		word(uint64(a.Levels()))
		for _, v := range a.Values {
			word(math.Float64bits(v))
		}
	}
	return h.Sum64()
}
