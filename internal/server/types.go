package server

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/compliance"
	"repro/internal/dse"
	"repro/internal/model"
	"repro/internal/search"
)

// ConfigRequest is the wire form of an accelerator configuration.
// Omitted secondary fields take the modeled-A100 defaults (vector width
// 32, 80 GB HBM, 1.41 GHz, 7 nm); "preset": "a100" starts from the full
// A100 baseline and overrides only the fields present.
type ConfigRequest struct {
	Preset          string  `json:"preset,omitempty"`
	Name            string  `json:"name,omitempty"`
	CoreCount       int     `json:"core_count,omitempty"`
	LanesPerCore    int     `json:"lanes_per_core,omitempty"`
	SystolicDimX    int     `json:"systolic_dim_x,omitempty"`
	SystolicDimY    int     `json:"systolic_dim_y,omitempty"`
	VectorWidth     int     `json:"vector_width,omitempty"`
	L1KB            int     `json:"l1_kb,omitempty"`
	L2MB            int     `json:"l2_mb,omitempty"`
	HBMCapacityGB   int     `json:"hbm_capacity_gb,omitempty"`
	HBMBandwidthGBs float64 `json:"hbm_bandwidth_gbs,omitempty"`
	DeviceBWGBs     float64 `json:"device_bw_gbs,omitempty"`
	ClockGHz        float64 `json:"clock_ghz,omitempty"`
	Process         string  `json:"process,omitempty"`
}

func parseProcess(s string) (arch.Process, error) {
	switch s {
	case "", "7nm":
		return arch.ProcessN7, nil
	case "5nm":
		return arch.ProcessN5, nil
	case "16nm":
		return arch.ProcessN16, nil
	case "planar":
		return arch.ProcessPlanar, nil
	default:
		return 0, fmt.Errorf("unknown process %q (7nm, 5nm, 16nm, planar)", s)
	}
}

// Config materialises and validates the request.
func (r ConfigRequest) Config() (arch.Config, error) {
	var cfg arch.Config
	switch r.Preset {
	case "a100":
		cfg = arch.A100()
	case "":
		cfg = arch.Config{
			VectorWidth:   32,
			HBMCapacityGB: 80,
			ClockGHz:      arch.A100ClockGHz,
			Process:       arch.ProcessN7,
		}
	default:
		return arch.Config{}, fmt.Errorf("unknown preset %q (a100)", r.Preset)
	}
	if r.Name != "" {
		cfg.Name = r.Name
	}
	if cfg.Name == "" {
		cfg.Name = "request"
	}
	if r.CoreCount != 0 {
		cfg.CoreCount = r.CoreCount
	}
	if r.LanesPerCore != 0 {
		cfg.LanesPerCore = r.LanesPerCore
	}
	if r.SystolicDimX != 0 {
		cfg.SystolicDimX = r.SystolicDimX
	}
	if r.SystolicDimY != 0 {
		cfg.SystolicDimY = r.SystolicDimY
	}
	if r.VectorWidth != 0 {
		cfg.VectorWidth = r.VectorWidth
	}
	if r.L1KB != 0 {
		cfg.L1KB = r.L1KB
	}
	if r.L2MB != 0 {
		cfg.L2MB = r.L2MB
	}
	if r.HBMCapacityGB != 0 {
		cfg.HBMCapacityGB = r.HBMCapacityGB
	}
	if r.HBMBandwidthGBs != 0 {
		cfg.HBMBandwidthGBs = r.HBMBandwidthGBs
	}
	if r.DeviceBWGBs != 0 {
		cfg.DeviceBWGBs = r.DeviceBWGBs
	}
	if r.ClockGHz != 0 {
		cfg.ClockGHz = r.ClockGHz
	}
	if r.Process != "" {
		p, err := parseProcess(r.Process)
		if err != nil {
			return arch.Config{}, err
		}
		cfg.Process = p
	}
	if err := cfg.Validate(); err != nil {
		return arch.Config{}, err
	}
	return cfg, nil
}

// WorkloadRequest is the wire form of an inference workload. The model is
// "gpt3" (default) or "llama3"; the remaining fields default to the
// paper's standard setting (batch 32, input 2048, output 1024, TP 4).
type WorkloadRequest struct {
	Model          string `json:"model,omitempty"`
	Batch          int    `json:"batch,omitempty"`
	InputLen       int    `json:"input_len,omitempty"`
	OutputLen      int    `json:"output_len,omitempty"`
	TensorParallel int    `json:"tensor_parallel,omitempty"`
	WeightBits     int    `json:"weight_bits,omitempty"`
}

// Workload materialises and validates the request.
func (r WorkloadRequest) Workload() (model.Workload, error) {
	var m model.Model
	switch r.Model {
	case "", "gpt3":
		m = model.GPT3_175B()
	case "llama3":
		m = model.Llama3_8B()
	default:
		return model.Workload{}, fmt.Errorf("unknown model %q (gpt3, llama3)", r.Model)
	}
	w := model.PaperWorkload(m)
	if r.Batch != 0 {
		w.Batch = r.Batch
	}
	if r.InputLen != 0 {
		w.InputLen = r.InputLen
	}
	if r.OutputLen != 0 {
		w.OutputLen = r.OutputLen
	}
	if r.TensorParallel != 0 {
		w.TensorParallel = r.TensorParallel
	}
	if r.WeightBits != 0 {
		w.WeightBits = r.WeightBits
	}
	if err := w.Validate(); err != nil {
		return model.Workload{}, err
	}
	return w, nil
}

// HBMRequest carries a memory package for the December 2024 HBM rule.
type HBMRequest struct {
	BandwidthGBs   float64 `json:"bandwidth_gbs"`
	PackageAreaMM2 float64 `json:"package_area_mm2"`
}

// ClassifyRequest classifies a device from either a full configuration
// (TPP and die area are then modeled) or raw datasheet metrics.
type ClassifyRequest struct {
	Config      *ConfigRequest `json:"config,omitempty"`
	TPP         float64        `json:"tpp,omitempty"`
	DeviceBWGBs float64        `json:"device_bw_gbs,omitempty"`
	DieAreaMM2  float64        `json:"die_area_mm2,omitempty"`
	Segment     string         `json:"segment,omitempty"` // datacenter (default) or consumer
	HBM         *HBMRequest    `json:"hbm,omitempty"`
}

// ClassifyResponse reports every rule verdict for the device.
type ClassifyResponse struct {
	TPP                float64 `json:"tpp"`
	DeviceBWGBs        float64 `json:"device_bw_gbs"`
	DieAreaMM2         float64 `json:"die_area_mm2"`
	PerformanceDensity float64 `json:"performance_density"`
	Oct2022            string  `json:"oct2022"`
	Oct2023DataCenter  string  `json:"oct2023_datacenter"`
	Oct2023Consumer    string  `json:"oct2023_consumer"`
	// Restricted is the strict data-center criterion: any export
	// requirement under either device-level rule.
	Restricted bool `json:"restricted"`
	// MinAreaToEscapeOct2023MM2 is the smallest applicable die area that
	// escapes the October 2023 rule entirely at this TPP, when one exists.
	MinAreaToEscapeOct2023MM2 float64 `json:"min_area_to_escape_oct2023_mm2,omitempty"`
	// HBMDec2024 is the December 2024 memory-rule verdict, present when
	// the request carried an HBM package.
	HBMDec2024 string `json:"hbm_dec2024,omitempty"`
}

// SimulateRequest evaluates one configuration on one workload.
type SimulateRequest struct {
	Config   ConfigRequest   `json:"config"`
	Workload WorkloadRequest `json:"workload"`
}

// SimulateResponse is the evaluated design point: latency, utilisation,
// silicon, cost and regulatory status.
type SimulateResponse struct {
	Config       string  `json:"config"`
	Workload     string  `json:"workload"`
	TPP          float64 `json:"tpp"`
	TTFTMS       float64 `json:"ttft_ms"`
	TBTMS        float64 `json:"tbt_ms"`
	AreaMM2      float64 `json:"area_mm2"`
	PD           float64 `json:"performance_density"`
	FitsReticle  bool    `json:"fits_reticle"`
	DieCostUSD   float64 `json:"die_cost_usd"`
	GoodDieUSD   float64 `json:"good_die_cost_usd"`
	Oct2023Class string  `json:"oct2023_datacenter"`
}

func simulateResponse(p dse.Point, w model.Workload) SimulateResponse {
	return SimulateResponse{
		Config:       p.Config.Name,
		Workload:     w.Model.Name,
		TPP:          p.TPP,
		TTFTMS:       p.TTFT() * 1e3,
		TBTMS:        p.TBT() * 1e3,
		AreaMM2:      p.AreaMM2,
		PD:           p.PD,
		FitsReticle:  p.FitsReticle,
		DieCostUSD:   p.DieCostUSD,
		GoodDieUSD:   p.GoodDieCostUSD,
		Oct2023Class: p.Oct2023Class.String(),
	}
}

// AuditRequest audits one configuration against every rule.
type AuditRequest struct {
	Config ConfigRequest `json:"config"`
}

// RemediationResponse is one compliance-restoring redesign.
type RemediationResponse struct {
	Kind        string  `json:"kind"`
	Description string  `json:"description"`
	Config      string  `json:"config"`
	TPPLoss     float64 `json:"tpp_loss,omitempty"`
	AreaGainMM2 float64 `json:"area_gain_mm2,omitempty"`
}

// AuditResponse is the full audit: verdicts plus the remediation menu.
type AuditResponse struct {
	Config       string                `json:"config"`
	TPP          float64               `json:"tpp"`
	AreaMM2      float64               `json:"area_mm2"`
	PD           float64               `json:"performance_density"`
	Oct2022      string                `json:"oct2022"`
	Oct2023DC    string                `json:"oct2023_datacenter"`
	Oct2023NDC   string                `json:"oct2023_consumer"`
	Compliant    bool                  `json:"compliant"`
	Remediations []RemediationResponse `json:"remediations,omitempty"`
}

func auditResponse(a compliance.Audit) AuditResponse {
	resp := AuditResponse{
		Config:     a.Config.Name,
		TPP:        a.TPP,
		AreaMM2:    a.AreaMM2,
		PD:         a.PD,
		Oct2022:    a.Oct2022.String(),
		Oct2023DC:  a.Oct2023DC.String(),
		Oct2023NDC: a.Oct2023NDC.String(),
		Compliant:  a.Compliant(),
	}
	for _, r := range a.Remediations {
		resp.Remediations = append(resp.Remediations, RemediationResponse{
			Kind:        r.Kind,
			Description: r.Description,
			Config:      r.Config.Name,
			TPPLoss:     r.TPPLoss,
			AreaGainMM2: r.AreaGainMM2,
		})
	}
	return resp
}

// GridRequest is an explicit DSE sweep specification, mirroring dse.Grid.
type GridRequest struct {
	Name            string    `json:"name,omitempty"`
	TPPTarget       float64   `json:"tpp_target"`
	SystolicDims    []int     `json:"systolic_dims"`
	LanesPerCore    []int     `json:"lanes_per_core"`
	L1KB            []int     `json:"l1_kb"`
	L2MB            []int     `json:"l2_mb"`
	HBMBandwidthGBs []float64 `json:"hbm_bandwidth_gbs"`
	DeviceBWGBs     []float64 `json:"device_bw_gbs"`
	HBMCapacityGB   int       `json:"hbm_capacity_gb,omitempty"`
	ClockGHz        float64   `json:"clock_ghz,omitempty"`
}

// Table3Request selects the paper's Table 3 grid at a TPP budget.
type Table3Request struct {
	TPP         float64   `json:"tpp"`
	DeviceBWGBs []float64 `json:"device_bw_gbs,omitempty"` // default {600}
}

// DSERequest enqueues an asynchronous design-space sweep. Exactly one of
// Grid, Table3 or Table5 selects the design space.
type DSERequest struct {
	Grid      *GridRequest     `json:"grid,omitempty"`
	Table3    *Table3Request   `json:"table3,omitempty"`
	Table5    bool             `json:"table5,omitempty"`
	Workload  *WorkloadRequest `json:"workload,omitempty"`
	Rule      string           `json:"rule,omitempty"`      // none (default), oct2022, oct2023
	Objective string           `json:"objective,omitempty"` // ttft (default), tbt, ttftcost, tbtcost
	Top       int              `json:"top,omitempty"`       // default 5
	// Eval is accepted for compatibility and ignored: every sweep
	// evaluates through the batch evaluator. "scalar", "batch" and ""
	// are valid, so journalled specs and older clients keep working;
	// any other value is a 400.
	Eval string `json:"eval,omitempty"`
}

func (r DSERequest) grid() (dse.Grid, error) {
	selected := 0
	for _, on := range []bool{r.Grid != nil, r.Table3 != nil, r.Table5} {
		if on {
			selected++
		}
	}
	if selected != 1 {
		return dse.Grid{}, fmt.Errorf("specify exactly one of grid, table3, table5")
	}
	switch {
	case r.Table3 != nil:
		if r.Table3.TPP <= 0 {
			return dse.Grid{}, fmt.Errorf("table3.tpp must be positive")
		}
		bw := r.Table3.DeviceBWGBs
		if len(bw) == 0 {
			bw = []float64{600}
		}
		if err := checkDeviceBW("table3.device_bw_gbs", bw); err != nil {
			return dse.Grid{}, err
		}
		return dse.Table3(r.Table3.TPP, bw), nil
	case r.Table5:
		return dse.Table5(), nil
	default:
		g := dse.Grid{
			Name:            r.Grid.Name,
			TPPTarget:       r.Grid.TPPTarget,
			SystolicDims:    r.Grid.SystolicDims,
			LanesPerCore:    r.Grid.LanesPerCore,
			L1KB:            r.Grid.L1KB,
			L2MB:            r.Grid.L2MB,
			HBMBandwidthGBs: r.Grid.HBMBandwidthGBs,
			DeviceBWGBs:     r.Grid.DeviceBWGBs,
			HBMCapacityGB:   r.Grid.HBMCapacityGB,
			ClockGHz:        r.Grid.ClockGHz,
		}
		if g.Name == "" {
			g.Name = "request"
		}
		if g.HBMCapacityGB == 0 {
			g.HBMCapacityGB = 80
		}
		if g.ClockGHz == 0 {
			g.ClockGHz = arch.A100ClockGHz
		}
		if g.TPPTarget <= 0 || g.Size() == 0 {
			return dse.Grid{}, fmt.Errorf("grid needs a positive tpp_target and non-empty dimension lists")
		}
		if err := r.Grid.validate(); err != nil {
			return dse.Grid{}, err
		}
		return g, nil
	}
}

// validate refuses, before any design is evaluated, an explicit grid
// value that arch.Config.Validate would reject in every design built
// from it: systolic dims, lanes, L1, L2 and HBM bandwidth must be
// positive, device bandwidth non-negative, and HBM capacity and clock
// positive when given (0 means the default).
func (g *GridRequest) validate() error {
	for _, ax := range []struct {
		field string
		vals  []int
	}{
		{"systolic_dims", g.SystolicDims}, {"lanes_per_core", g.LanesPerCore},
		{"l1_kb", g.L1KB}, {"l2_mb", g.L2MB},
	} {
		for _, v := range ax.vals {
			if v <= 0 {
				return fmt.Errorf("grid.%s value %d must be positive", ax.field, v)
			}
		}
	}
	for _, v := range g.HBMBandwidthGBs {
		if v <= 0 {
			return fmt.Errorf("grid.hbm_bandwidth_gbs value %g must be positive", v)
		}
	}
	if err := checkDeviceBW("grid.device_bw_gbs", g.DeviceBWGBs); err != nil {
		return err
	}
	if g.HBMCapacityGB < 0 {
		return fmt.Errorf("grid.hbm_capacity_gb value %d must be positive", g.HBMCapacityGB)
	}
	if g.ClockGHz < 0 {
		return fmt.Errorf("grid.clock_ghz value %g must be positive", g.ClockGHz)
	}
	return nil
}

// coreFields names the request fields and values a grid's core count
// for one (systolic dim, lanes) pair is solved from: the Table 3 TPP
// budget, whose dims and lanes are fixed, or an explicit grid's budget,
// dim and lanes.
func (r DSERequest) coreFields(dim, lanes int) string {
	switch {
	case r.Table3 != nil:
		return fmt.Sprintf("table3.tpp value %g", r.Table3.TPP)
	case r.Grid != nil:
		return fmt.Sprintf("grid.tpp_target value %g with systolic_dims value %d and lanes_per_core value %d",
			r.Grid.TPPTarget, dim, lanes)
	default:
		return "table5"
	}
}

// checkCores refuses a grid for which arch.MaxCoresForTPP cannot hold
// some (systolic dim, lanes) pair's core count in an int (its
// ErrOutOfRange), naming the request fields field gives for the pair.
// A pair whose one core already reaches the budget is not an error: the
// grid's expansion skips it.
func checkCores(g dse.Grid, field func(dim, lanes int) string) error {
	for _, dim := range g.SystolicDims {
		for _, lanes := range g.LanesPerCore {
			if _, err := arch.MaxCoresForTPP(g.TPPTarget, lanes, dim, dim, g.ClockGHz); errors.Is(err, arch.ErrOutOfRange) {
				return fmt.Errorf("%s: %w", field(dim, lanes), err)
			}
		}
	}
	return nil
}

// checkDeviceBW refuses the first negative device bandwidth in bw,
// naming the request field it came from.
func checkDeviceBW(field string, bw []float64) error {
	for _, v := range bw {
		if v < 0 {
			return fmt.Errorf("%s value %g must be non-negative", field, v)
		}
	}
	return nil
}

// SearchRequest enqueues an asynchronous adaptive design-space search:
// a pluggable engine (package search) explores a design lattice under a
// unique-evaluation budget instead of sweeping it exhaustively.
type SearchRequest struct {
	// Engine selects the explorer: nsga2 (default), anneal, pattern, or
	// grid (exhaustive enumeration behind the same interface).
	Engine string `json:"engine,omitempty"`
	// Space is table3 (default; the paper's grid at TPP, trading prefill
	// latency against die area) or jan2025 (the ~10^11-point quantity-cap
	// lattice, trading decode latency against TPP drawn per device).
	Space string `json:"space,omitempty"`
	// TPP is the table3 TPP budget; default 4800. Ignored for jan2025.
	TPP float64 `json:"tpp,omitempty"`
	// Budget bounds unique simulated designs; archive revisits are free.
	Budget int `json:"budget"`
	// Seed fixes the engine's RNG stream; 0 derives a deterministic seed
	// from the engine name and space, so unseeded runs still reproduce.
	Seed     uint64           `json:"seed,omitempty"`
	Workload *WorkloadRequest `json:"workload,omitempty"`
}

// problem materialises the request's search problem.
func (r SearchRequest) problem() (search.Problem, error) {
	wreq := WorkloadRequest{}
	if r.Workload != nil {
		wreq = *r.Workload
	}
	wl, err := wreq.Workload()
	if err != nil {
		return search.Problem{}, fmt.Errorf("workload: %w", err)
	}
	switch r.Space {
	case "", "table3":
		tpp := r.TPP
		if tpp == 0 {
			tpp = 4800
		}
		if tpp < 0 {
			return search.Problem{}, fmt.Errorf("tpp must be positive")
		}
		grid := dse.Table3(tpp, []float64{600})
		if err := checkCores(grid, func(int, int) string { return fmt.Sprintf("tpp value %g", tpp) }); err != nil {
			return search.Problem{}, err
		}
		return search.Problem{
			Space:      search.FromGrid(grid),
			Workload:   wl,
			Objectives: search.ObjectivesLatencyArea(),
		}, nil
	case "jan2025":
		return search.Jan2025Problem(wl), nil
	default:
		return search.Problem{}, fmt.Errorf("unknown space %q (table3, jan2025)", r.Space)
	}
}

// SearchDesign is one Pareto-front member of a search result.
type SearchDesign struct {
	Config  string     `json:"config"`
	Objs    [2]float64 `json:"objs"`
	TTFTMS  float64    `json:"ttft_ms"`
	TBTMS   float64    `json:"tbt_ms"`
	AreaMM2 float64    `json:"area_mm2"`
	TPP     float64    `json:"tpp"`
}

// SearchResult is the terminal payload of a search job: the run's
// counters and the engine's final non-dominated feasible front.
type SearchResult struct {
	Engine      string         `json:"engine"`
	Space       string         `json:"space"`
	Seed        uint64         `json:"seed"`
	Budget      int            `json:"budget"`
	Evaluations int            `json:"evaluations"`
	Proposals   int            `json:"proposals"`
	Generations int            `json:"generations"`
	Objectives  []string       `json:"objectives"`
	Front       []SearchDesign `json:"front"`
	// CacheHits and CacheMisses count the run's own point-store outcomes
	// (dse.Session.CacheCounts), whatever other jobs run at the same time.
	CacheHits   uint64  `json:"cache_hits"`
	CacheMisses uint64  `json:"cache_misses"`
	DurationMS  float64 `json:"duration_ms"`
}

func searchResult(out search.Outcome, elapsed time.Duration) SearchResult {
	res := SearchResult{
		Engine:      out.Engine,
		Space:       out.Space,
		Seed:        out.Seed,
		Budget:      out.Budget,
		Evaluations: out.Evaluations,
		Proposals:   out.Proposals,
		Generations: out.Generations,
		Objectives:  out.Objectives,
		CacheHits:   out.CacheHits,
		CacheMisses: out.CacheMisses,
		DurationMS:  float64(elapsed) / float64(time.Millisecond),
	}
	for _, r := range out.Front {
		res.Front = append(res.Front, SearchDesign{
			Config:  r.Point.Config.Name,
			Objs:    r.Objs,
			TTFTMS:  r.Point.TTFT() * 1e3,
			TBTMS:   r.Point.TBT() * 1e3,
			AreaMM2: r.Point.AreaMM2,
			TPP:     r.Point.TPP,
		})
	}
	return res
}

// DesignSummary is one ranked design in a DSE result.
type DesignSummary struct {
	Rank       int     `json:"rank"`
	Config     string  `json:"config"`
	TTFTMS     float64 `json:"ttft_ms"`
	TBTMS      float64 `json:"tbt_ms"`
	AreaMM2    float64 `json:"area_mm2"`
	PD         float64 `json:"performance_density"`
	DieCostUSD float64 `json:"die_cost_usd"`
}

// DSEResult is the terminal payload of a sweep job.
type DSEResult struct {
	Grid       string          `json:"grid"`
	Workload   string          `json:"workload"`
	Rule       string          `json:"rule"`
	Objective  string          `json:"objective"`
	Designs    int             `json:"designs"`
	Admissible int             `json:"admissible"`
	Top        []DesignSummary `json:"top,omitempty"`
	// CacheHits and CacheMisses count the sweep's own point-store
	// outcomes (dse.Session.CacheCounts), whatever other jobs run at the
	// same time: the evidence that a repeated grid skipped re-simulation.
	CacheHits   uint64  `json:"cache_hits"`
	CacheMisses uint64  `json:"cache_misses"`
	DurationMS  float64 `json:"duration_ms"`
}

// EnqueueResponse acknowledges an accepted async job.
type EnqueueResponse struct {
	JobID   string `json:"job_id"`
	State   string `json:"state"`
	PollURL string `json:"poll_url"`
	// StreamURL delivers the job's results incrementally (NDJSON, or
	// SSE with ?format=sse): per-design point frames, a running Pareto
	// front, and a terminal summary.
	StreamURL string `json:"stream_url"`
	// Designs is the number of designs the job will evaluate: a grid's
	// expanded size (combinations whose one-core device already reaches
	// the TPP budget are not counted), or for a search an upper bound,
	// its budget: a run stops early when its engine converges or stalls.
	Designs int `json:"designs"`
	// Trace is the request's trace ID; fetch the sweep's span tree from
	// /debug/obs/trace?trace=<id> once the job runs. Empty when tracing
	// is disabled.
	Trace string `json:"trace,omitempty"`
}

// errorResponse is the uniform error envelope.
type errorResponse struct {
	Error string `json:"error"`
}
