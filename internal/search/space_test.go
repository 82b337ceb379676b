package search

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/dse"
	"repro/internal/ir"
	"repro/internal/model"
)

// TestFromGridLatticeMatchesExpand is the precondition of every oracle
// test: the Space built from a grid must materialise exactly the design
// set grid.Expand() enumerates, compared by name-excluded config hash.
func TestFromGridLatticeMatchesExpand(t *testing.T) {
	for _, g := range []dse.Grid{dse.Table3(4800, []float64{600}), dse.Table5()} {
		g := g
		t.Run(g.Name, func(t *testing.T) {
			want := make(map[uint64]bool)
			for _, cfg := range g.Expand() {
				want[ir.ConfigHash(cfg)] = true
			}
			space := FromGrid(g)
			got := make(map[uint64]bool)
			total := int(space.Size())
			if total != g.Size() {
				t.Fatalf("lattice size %d, grid size %d", total, g.Size())
			}
			eng := newGridEngine(space, 0).(*grid)
			for ord := 0; ord < total; ord++ {
				cfg, err := space.At(eng.indicesOf(ord))
				if err != nil {
					continue // combination with no legal core count, skipped by Expand too
				}
				got[ir.ConfigHash(cfg)] = true
			}
			if len(got) != len(want) {
				t.Fatalf("space materialises %d distinct designs, grid expands %d", len(got), len(want))
			}
			for h := range want {
				if !got[h] {
					t.Errorf("design %x in grid expansion but not in space lattice", h)
				}
			}
		})
	}
}

// TestAppendLevelMatchesFloatFormat pins design labels to strconv's
// shortest 'g' form: appendLevel writes its bytes for every level of the
// jan2025 space and of the spaces built from Table 3 and Table 5, and
// for values at and around the edges of its integer path.
func TestAppendLevelMatchesFloatFormat(t *testing.T) {
	var vals []float64
	for _, s := range []Space{Jan2025Space(), FromGrid(dse.Table3(4800, []float64{600})), FromGrid(dse.Table5())} {
		for _, a := range s.Axes {
			vals = append(vals, a.Values...)
		}
	}
	vals = append(vals, 0, math.Copysign(0, -1), 999999, 1e6, 0.5, 1200.5, -3)
	for _, v := range vals {
		got := string(appendLevel([]byte("/"), v))
		if want := string(strconv.AppendFloat([]byte("/"), v, 'g', -1, 64)); got != want {
			t.Errorf("appendLevel(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestAxisSnapUnitRoundTrip(t *testing.T) {
	for _, levels := range []int{1, 2, 3, 4, 7, 113} {
		vals := make([]int, levels)
		for i := range vals {
			vals[i] = i * 10
		}
		a := IntAxis(RoleLanes, vals...)
		for i := 0; i < levels; i++ {
			if got := a.Snap(a.Unit(i)); got != i {
				t.Errorf("levels=%d: Snap(Unit(%d)) = %d", levels, i, got)
			}
		}
		// Out-of-range coordinates clamp to the boundary levels.
		if got := a.Snap(-0.5); got != 0 {
			t.Errorf("Snap(-0.5) = %d, want 0", got)
		}
		if got := a.Snap(1.5); got != levels-1 {
			t.Errorf("Snap(1.5) = %d, want %d", got, levels-1)
		}
	}
}

func TestRangeAxis(t *testing.T) {
	a := RangeAxis(RoleHBMBandwidthGBs, 800, 6400, 50)
	if got, want := a.Levels(), 113; got != want {
		t.Fatalf("levels = %d, want %d", got, want)
	}
	if a.Values[0] != 800 || a.Values[len(a.Values)-1] != 6400 {
		t.Errorf("endpoints = %g..%g, want 800..6400", a.Values[0], a.Values[len(a.Values)-1])
	}
	// Degenerate parameters collapse to a single level instead of
	// panicking.
	if got := RangeAxis(RoleTPPBudget, 10, 5, 1).Levels(); got != 1 {
		t.Errorf("inverted range: %d levels, want 1", got)
	}
	if got := RangeAxis(RoleTPPBudget, 10, 20, 0).Levels(); got != 1 {
		t.Errorf("zero step: %d levels, want 1", got)
	}
}

func TestDecodeRejectsWrongDimensionality(t *testing.T) {
	space := FromGrid(dse.Table5())
	if _, err := space.Decode(Genome{0.5}); err == nil {
		t.Error("Decode accepted a genome with the wrong number of coordinates")
	}
	if _, err := space.At([]int{0}); err == nil {
		t.Error("At accepted an index vector with the wrong length")
	}
	if _, err := space.At([]int{0, 0, 0, 0, 0, 99}); err == nil {
		t.Error("At accepted an out-of-range index")
	}
}

// TestSpaceAxisRolesBind pins that each role actually lands in the
// config field it names, including the derived ones (stack count →
// capacity, TPP budget → core count, process enum).
func TestSpaceAxisRolesBind(t *testing.T) {
	space := Space{
		Name: "roles",
		Axes: []Axis{
			IntAxis(RoleSystolicDim, 8),
			IntAxis(RoleLanes, 2),
			IntAxis(RoleL1KB, 64),
			IntAxis(RoleL2MB, 16),
			FloatAxis(RoleHBMBandwidthGBs, 1600),
			FloatAxis(RoleDeviceBWGBs, 300),
			IntAxis(RoleHBMStacks, 6),
			RangeAxis(RoleTPPBudget, 2400, 2400, 1),
			IntAxis(RoleProcess, int(arch.ProcessN5)),
		},
		HBMStackGB: 24,
	}
	cfg, err := space.At([]int{0, 0, 0, 0, 0, 0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.SystolicDimX != 8 || cfg.SystolicDimY != 8 {
		t.Errorf("systolic dims = %dx%d, want 8x8", cfg.SystolicDimX, cfg.SystolicDimY)
	}
	if cfg.LanesPerCore != 2 || cfg.L1KB != 64 || cfg.L2MB != 16 {
		t.Errorf("lanes/L1/L2 = %d/%d/%d", cfg.LanesPerCore, cfg.L1KB, cfg.L2MB)
	}
	if cfg.HBMBandwidthGBs != 1600 || cfg.DeviceBWGBs != 300 {
		t.Errorf("bandwidths = %g/%g", cfg.HBMBandwidthGBs, cfg.DeviceBWGBs)
	}
	if cfg.HBMCapacityGB != 6*24 {
		t.Errorf("capacity = %d GB, want %d", cfg.HBMCapacityGB, 6*24)
	}
	if cfg.Process != arch.ProcessN5 {
		t.Errorf("process = %v, want N5", cfg.Process)
	}
	if cfg.TPP() > 2400 {
		t.Errorf("TPP %g exceeds the 2400 budget axis", cfg.TPP())
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("decoded config invalid: %v", err)
	}
}

func TestDeriveSeed(t *testing.T) {
	s3 := FromGrid(dse.Table3(4800, []float64{600}))
	s5 := FromGrid(dse.Table5())
	if DeriveSeed("nsga2", s3) == 0 {
		t.Error("derived seed is zero")
	}
	if DeriveSeed("nsga2", s3) == DeriveSeed("anneal", s3) {
		t.Error("different engines derived the same seed")
	}
	if DeriveSeed("nsga2", s3) == DeriveSeed("nsga2", s5) {
		t.Error("different spaces derived the same seed")
	}
	if DeriveSeed("nsga2", s3) != DeriveSeed("nsga2", s3) {
		t.Error("seed derivation is not deterministic")
	}
}

// TestJan2025Space sanity-checks the showcase space: far too large to
// enumerate, yet every decoded point is a valid configuration.
func TestJan2025Space(t *testing.T) {
	space := Jan2025Space()
	if size := space.Size(); size < 1e10 {
		t.Errorf("Jan-2025 space has %.3g points; the scenario calls for >= 1e10", size)
	}
	eng, err := New("nsga2", space, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range eng.Propose(32) {
		cfg, err := space.Decode(g)
		if err != nil {
			continue // TPP budget too small for one core: legal outcome
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("decoded config %s invalid: %v", cfg.Name, err)
		}
	}
}

// TestJan2025CapacityConstraint pins the HBM-capacity feasibility rule:
// the workload's footprint must fit, so low stack counts are infeasible
// for GPT-3-class models and the stacks axis binds.
func TestJan2025CapacityConstraint(t *testing.T) {
	w := model.PaperWorkload(model.GPT3_175B())
	feasible := FeasibleCapacity(w)
	small := dse.Point{FitsReticle: true}
	small.Config.HBMCapacityGB = 32
	if ok, viol := feasible(small); ok || viol <= 0 {
		t.Errorf("32 GB accepted for GPT-3 175B (viol %g): weights alone need ~87 GB at TP=4", viol)
	}
	// GPT-3 175B at TP=4 needs ~87 GB of FP16 weights plus ~116 GB of
	// full-context KV cache per device.
	big := dse.Point{FitsReticle: true}
	big.Config.HBMCapacityGB = 256
	if ok, _ := feasible(big); !ok {
		t.Error("256 GB rejected for GPT-3 175B at TP=4")
	}
	// Reticle failure still dominates.
	big.FitsReticle = false
	big.AreaMM2 = 1000
	if ok, viol := feasible(big); ok || viol <= 0 {
		t.Errorf("reticle-violating design accepted (viol %g)", viol)
	}
}

// TestJan2025ProblemRuns drives one small adaptive run end-to-end on the
// full-size space.
func TestJan2025ProblemRuns(t *testing.T) {
	prob := Jan2025Problem(model.PaperWorkload(model.Llama3_8B()))
	eng, err := New("anneal", prob.Space, 11)
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{}
	out, err := r.Run(context.Background(), prob, eng, 48, 11)
	if err != nil {
		t.Fatal(err)
	}
	if out.Evaluations == 0 || out.Evaluations > 48 {
		t.Errorf("evaluations = %d, want 1..48", out.Evaluations)
	}
	if len(out.Front) == 0 {
		t.Error("empty front on the Jan-2025 problem")
	}
	for _, fr := range out.Front {
		if !fr.Feasible {
			t.Errorf("infeasible design %s on the front", fr.Point.Config.Name)
		}
	}
}

// TestConfigNamesMatchFmt pins design names to fmt's "/%s%g" rendering
// of each level: names label fixtures, stream frames and results, so
// the strconv rendering must match it byte for byte on any level,
// however large, small, fractional or signed.
func TestConfigNamesMatchFmt(t *testing.T) {
	odd := Space{
		Name: "odd",
		Axes: []Axis{FloatAxis(RoleDeviceBWGBs,
			math.Copysign(0, -1), 0, 0.1, 1.0/3, 2.5e-5, 1e-7, 12.5, 600,
			99999, 123456, 999999, 1e6, 1234567, 1e21, -7, -0.25, math.MaxFloat64)},
		TPPTarget: 4800,
	}
	jan := Jan2025Space()
	for _, s := range []Space{odd, FromGrid(dse.Table3(4800, []float64{600})), jan} {
		idx := make([]int, s.Dims())
		for ax, a := range s.Axes {
			for j := range a.Values {
				idx[ax] = j
				cfg, err := s.At(idx)
				if err != nil {
					continue // the TPP budget admits no core at these levels
				}
				var want strings.Builder
				want.WriteString(s.Name)
				for k, b := range s.Axes {
					fmt.Fprintf(&want, "/%s%g", b.Role, b.Values[idx[k]])
				}
				if cfg.Name != want.String() {
					t.Fatalf("name %q, want %q", cfg.Name, want.String())
				}
			}
			idx[ax] = a.Levels() / 2
		}
	}
}
