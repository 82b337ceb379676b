package dse

import (
	"context"
	"fmt"
	"strconv"
	"testing"

	"repro/internal/arch"
	"repro/internal/model"
)

// expandNested is the grid expansion written as the plain nested loops
// over the axes, one Sprintf-free name per design: the reference the
// grid cursor (Expand and every grid window) is pinned to.
func expandNested(g Grid) []arch.Config {
	var out []arch.Config
	for _, dim := range g.SystolicDims {
		for _, lanes := range g.LanesPerCore {
			cores, err := arch.MaxCoresForTPP(g.TPPTarget, lanes, dim, dim, g.ClockGHz)
			if err != nil {
				continue
			}
			for _, l1 := range g.L1KB {
				for _, l2 := range g.L2MB {
					for _, hbm := range g.HBMBandwidthGBs {
						for _, dev := range g.DeviceBWGBs {
							out = append(out, arch.Config{
								Name: g.Name + "/" + strconv.Itoa(dim) + "x" + strconv.Itoa(dim) +
									"-l" + strconv.Itoa(lanes) + "-L1:" + strconv.Itoa(l1) +
									"-L2:" + strconv.Itoa(l2) +
									"-m" + strconv.FormatFloat(hbm, 'f', 0, 64) +
									"-d" + strconv.FormatFloat(dev, 'f', 0, 64),
								CoreCount:       cores,
								LanesPerCore:    lanes,
								SystolicDimX:    dim,
								SystolicDimY:    dim,
								VectorWidth:     32,
								L1KB:            l1,
								L2MB:            l2,
								HBMCapacityGB:   g.HBMCapacityGB,
								HBMBandwidthGBs: hbm,
								DeviceBWGBs:     dev,
								ClockGHz:        g.ClockGHz,
								Process:         arch.ProcessN7,
							})
						}
					}
				}
			}
		}
	}
	return out
}

// sweepGridConfigs runs one SweepGrid of g on ex and returns the config
// of every design its windows delivered, at the design's index, and how
// many of them the store served.
func sweepGridConfigs(t *testing.T, ex *Explorer, g Grid, w model.Workload) ([]arch.Config, int) {
	t.Helper()
	got := make([]arch.Config, designs(t, g))
	sess := ex.NewSession(w)
	err := sess.SweepGrid(context.Background(), g, nil, func(win Window) {
		for k, p := range win.Points {
			if !win.Done[k] {
				t.Errorf("design %d not evaluated", win.Lo+k)
				continue
			}
			got[win.Lo+k] = p.Config
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	hits, _ := sess.CacheCounts()
	return got, int(hits)
}

// designs returns g.Designs(), failing t on a grid a sweep refuses.
func designs(t testing.TB, g Grid) int {
	t.Helper()
	n, err := g.Designs()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// diffConfigs reports the first design where got and want differ.
func diffConfigs(got, want []arch.Config) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d designs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("design %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

// TestGridWindowsMatchExpand pins grid windows to Expand: on the paper's
// grids, a grid whose TPP budget drops pairs and one that drops every
// pair, a grid sweep delivers Designs() designs whose configs and names
// are Expand()'s, in order, and Expand is the nested-loop expansion. A
// warm sweep of the same grid under a new name serves every design from
// the store under the requested names.
func TestGridWindowsMatchExpand(t *testing.T) {
	w := model.PaperWorkload(model.GPT3_175B())
	for _, c := range []struct {
		name string
		g    Grid
	}{
		{"table3", Table3(4800, []float64{600})},
		{"table3-3bw", Table3(2400, []float64{500, 700, 900})},
		{"table5", Table5()},
		{"tpp100", Table3(100, []float64{600})},
		{"tpp1", Table3(1, []float64{600})},
	} {
		t.Run(c.name, func(t *testing.T) {
			want := expandNested(c.g)
			if err := diffConfigs(c.g.Expand(), want); err != nil {
				t.Fatalf("Expand: %v", err)
			}
			if got := designs(t, c.g); got != len(want) {
				t.Fatalf("Designs() = %d, want %d", got, len(want))
			}
			ex := NewExplorer()
			got, _ := sweepGridConfigs(t, ex, c.g, w)
			if err := diffConfigs(got, want); err != nil {
				t.Fatalf("cold grid sweep: %v", err)
			}
			pts, err := ex.Run(c.g, w)
			if err != nil {
				t.Fatal(err)
			}
			cfgs := make([]arch.Config, len(pts))
			for i, p := range pts {
				cfgs[i] = p.Config
				if p.Result.Config != p.Config {
					t.Fatalf("design %d: result config %+v, point config %+v", i, p.Result.Config, p.Config)
				}
			}
			if err := diffConfigs(cfgs, want); err != nil {
				t.Fatalf("warm Run: %v", err)
			}

			renamed := c.g
			renamed.Name = "renamed-" + c.g.Name
			got, hits := sweepGridConfigs(t, ex, renamed, w)
			if hits != len(want) {
				t.Errorf("renamed warm sweep: %d store hits, want %d", hits, len(want))
			}
			if err := diffConfigs(got, expandNested(renamed)); err != nil {
				t.Fatalf("renamed warm sweep: %v", err)
			}
		})
	}
}

// TestGridCursorSeeksEveryDesign pins the seek a window starts with: a
// cursor sought to any design of a grid holds that design's config and
// name, and stepping it on reaches the next.
func TestGridCursorSeeksEveryDesign(t *testing.T) {
	for _, g := range []Grid{Table3(2400, []float64{500, 700, 900}), Table3(100, []float64{600}), Table5()} {
		want := expandNested(g)
		gw, _ := g.walk()
		var c gridCursor
		for i := range want {
			c.seek(&gw, i)
			for j := i; j < min(i+3, len(want)); j++ {
				var cfg arch.Config
				c.fill(&gw, &cfg, string(c.name))
				if cfg != want[j] {
					t.Fatalf("%s: seek %d, step to %d: %+v, want %+v", g.Name, i, j, cfg, want[j])
				}
				c.next(&gw)
			}
		}
	}
}

// TestWarmGridSweepKeepsStoredNames pins the warm path's naming: a grid
// sweep served from the store under the names its points were stored
// with allocates no name, so a warm Table 5 sweep allocates less than
// once per window; under new names it allocates one name per design.
func TestWarmGridSweepKeepsStoredNames(t *testing.T) {
	ex := NewExplorer()
	ex.Parallelism = 1
	w := model.PaperWorkload(model.GPT3_175B())
	g := Table5()
	if _, err := ex.Run(g, w); err != nil {
		t.Fatal(err)
	}
	sess := ex.NewSession(w)
	sweep := func(g Grid) func() {
		return func() {
			if err := sess.SweepGrid(context.Background(), g, nil, func(Window) {}); err != nil {
				t.Fatal(err)
			}
		}
	}
	n := designs(t, g)
	windows := (n + 31) / 32
	if allocs := testing.AllocsPerRun(5, sweep(g)); allocs >= float64(windows) {
		t.Errorf("warm grid sweep under the stored names: %v allocs, want fewer than its %d windows", allocs, windows)
	}
	renamed := g
	renamed.Name = "renamed"
	if allocs := testing.AllocsPerRun(5, sweep(renamed)); allocs < float64(n) {
		t.Errorf("warm grid sweep under new names: %v allocs, want one name per design (%d)", allocs, n)
	}
}

// FuzzGridWindows pins grid windows to the nested-loop expansion over
// explicit grids: arbitrary axis lengths (empty axes included) and
// values, and TPP budgets that drop some or all (dim, lanes) pairs, so
// window boundaries and cursor seeks land on every level of the
// odometer. Expand and Designs must agree with the reference, a cold
// grid sweep must deliver its configs in order, and a warm sweep of the
// renamed grid must serve every design from the store under the new
// names.
func FuzzGridWindows(f *testing.F) {
	f.Add([]byte{2, 0, 1, 4, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 3, 2, 1, 3, 0, 1, 2}, uint16(4800), uint8(0), "fuzz")
	f.Add([]byte{3, 0, 1, 2, 2, 0, 3, 1, 3, 4, 2, 1, 0, 4, 1, 2, 3, 4}, uint16(100), uint8(1), "g")
	f.Add([]byte{1, 2, 1, 0, 0}, uint16(1), uint8(2), "")
	f.Add([]byte{4, 0, 1, 2, 3, 4, 0, 1, 2, 3, 3, 0, 1, 2, 3, 3, 0, 1, 2, 2, 1, 3}, uint16(2400), uint8(1), "wide")
	f.Fuzz(func(t *testing.T, axes []byte, tpp uint16, par uint8, name string) {
		next := func() int {
			if len(axes) == 0 {
				return 0
			}
			b := int(axes[0])
			axes = axes[1:]
			return b
		}
		pick := func(vals []int) []int {
			n := next() % 5
			out := make([]int, n)
			for i := range out {
				out[i] = vals[next()%len(vals)]
			}
			return out
		}
		pickF := func(vals []float64) []float64 {
			n := next() % 5
			out := make([]float64, n)
			for i := range out {
				out[i] = vals[next()%len(vals)]
			}
			return out
		}
		g := Grid{
			Name:            name,
			TPPTarget:       float64(tpp),
			SystolicDims:    pick([]int{4, 8, 16, 32}),
			LanesPerCore:    pick([]int{1, 2, 4, 8}),
			L1KB:            pick([]int{32, 64, 192, 1024}),
			L2MB:            pick([]int{8, 16, 40, 80}),
			HBMBandwidthGBs: pickF([]float64{800, 1200.5, 2000, 3199.49}),
			DeviceBWGBs:     pickF([]float64{400, 600.5, 900}),
			HBMCapacityGB:   80,
			ClockGHz:        arch.A100ClockGHz,
		}
		want := expandNested(g)
		if err := diffConfigs(g.Expand(), want); err != nil {
			t.Fatalf("Expand: %v", err)
		}
		if got := designs(t, g); got != len(want) {
			t.Fatalf("Designs() = %d, want %d", got, len(want))
		}
		ex := NewExplorer()
		ex.Parallelism = 1 + int(par%3)
		w := model.PaperWorkload(model.Llama3_8B())
		got, _ := sweepGridConfigs(t, ex, g, w)
		if err := diffConfigs(got, want); err != nil {
			t.Fatalf("cold grid sweep: %v", err)
		}
		renamed := g
		renamed.Name = name + "-renamed"
		got, hits := sweepGridConfigs(t, ex, renamed, w)
		if hits != len(want) {
			t.Errorf("renamed warm sweep: %d store hits, want %d", hits, len(want))
		}
		if err := diffConfigs(got, expandNested(renamed)); err != nil {
			t.Fatalf("renamed warm sweep: %v", err)
		}
	})
}
