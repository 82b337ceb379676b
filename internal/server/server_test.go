package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/ir"
	"repro/internal/perf"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{
		Workers: 2,
		Backlog: 8,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp
}

func TestClassifyFromMetrics(t *testing.T) {
	_, ts := newTestServer(t)
	// A100 datasheet numbers: restricted under both device rules.
	resp, body := postJSON(t, ts.URL+"/v1/classify",
		`{"tpp":4992,"device_bw_gbs":600,"die_area_mm2":826}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var cr ClassifyResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Oct2022 != "License Required" {
		t.Errorf("oct2022 = %q, want License Required", cr.Oct2022)
	}
	if !cr.Restricted {
		t.Error("A100 should be restricted")
	}
	if cr.PerformanceDensity <= 0 {
		t.Error("PD should be computed from area")
	}
}

func TestClassifyFromConfigWithHBM(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/classify",
		`{"config":{"preset":"a100"},"hbm":{"bandwidth_gbs":819,"package_area_mm2":110}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var cr ClassifyResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.TPP < 4900 || cr.TPP > 5100 {
		t.Errorf("modeled A100 TPP = %v, want ≈4992", cr.TPP)
	}
	if cr.DieAreaMM2 <= 0 {
		t.Error("config classify should model die area")
	}
	if cr.HBMDec2024 == "" {
		t.Error("HBM verdict missing")
	}
}

func TestClassifyRejectsMalformedJSON(t *testing.T) {
	_, ts := newTestServer(t)
	for name, body := range map[string]string{
		"syntax":        `{"tpp":`,
		"unknown field": `{"tpp":100,"bogus":true}`,
		"trailing data": `{"tpp":100}{"again":1}`,
		"no metrics":    `{}`,
		"bad segment":   `{"tpp":100,"segment":"submarine"}`,
	} {
		resp, data := postJSON(t, ts.URL+"/v1/classify", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, resp.StatusCode, data)
		}
		var er errorResponse
		if err := json.Unmarshal(data, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error envelope missing: %s", name, data)
		}
	}
}

func TestSimulateEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/simulate",
		`{"config":{"preset":"a100"},"workload":{"model":"llama3"}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr SimulateResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.TTFTMS <= 0 || sr.TBTMS <= 0 || sr.TTFTMS < sr.TBTMS {
		t.Errorf("implausible latencies: %+v", sr)
	}
	if sr.Workload != "Llama 3 8B" || sr.AreaMM2 <= 0 || sr.DieCostUSD <= 0 {
		t.Errorf("response incomplete: %+v", sr)
	}
}

func TestSimulateRejectsInvalidConfigAndWorkload(t *testing.T) {
	_, ts := newTestServer(t)
	resp, _ := postJSON(t, ts.URL+"/v1/simulate",
		`{"config":{"core_count":10},"workload":{}}`) // missing lanes, dims, caches…
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid config: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/simulate",
		`{"config":{"preset":"a100"},"workload":{"tensor_parallel":7}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid workload: status %d, want 400", resp.StatusCode)
	}
}

func TestSimulateUsesSharedCache(t *testing.T) {
	s, ts := newTestServer(t)
	body := `{"config":{"preset":"a100"},"workload":{"model":"llama3"}}`
	postJSON(t, ts.URL+"/v1/simulate", body)
	cold := s.Explorer().Cache.Stats()
	resp, _ := postJSON(t, ts.URL+"/v1/simulate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatal("second simulate failed")
	}
	warm := s.Explorer().Cache.Stats()
	if warm.Hits != cold.Hits+1 {
		t.Errorf("repeat simulate should hit the cache: %+v → %+v", cold, warm)
	}
}

func TestAuditEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/audit", `{"config":{"preset":"a100"}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var ar AuditResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Compliant {
		t.Error("the A100 is the canonical restricted device")
	}
	if len(ar.Remediations) == 0 {
		t.Error("audit of a restricted device should offer remediations")
	}
	for _, rem := range ar.Remediations {
		if rem.Kind == "" || rem.Description == "" {
			t.Errorf("incomplete remediation: %+v", rem)
		}
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/audit", `{"config":{"l1_kb":-4}}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid audit config: status %d, want 400", resp.StatusCode)
	}
}

// smallDSEBody is a 16-design sweep that finishes quickly.
const smallDSEBody = `{
	"grid": {
		"name": "test-sweep",
		"tpp_target": 4800,
		"systolic_dims": [16],
		"lanes_per_core": [2, 4],
		"l1_kb": [192, 1024],
		"l2_mb": [32, 64],
		"hbm_bandwidth_gbs": [2000, 3200],
		"device_bw_gbs": [600]
	},
	"workload": {"model": "llama3"},
	"rule": "oct2022",
	"objective": "tbt",
	"top": 3
}`

// pollJob polls the job until it reaches a terminal state.
func pollJob(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var st JobStatus
		resp := getJSON(t, base+"/v1/jobs/"+id, &st)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d", resp.StatusCode)
		}
		switch st.State {
		case "succeeded", "failed", "cancelled":
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("job never finished")
	return JobStatus{}
}

func decodeDSEResult(t *testing.T, st JobStatus) DSEResult {
	t.Helper()
	raw, err := json.Marshal(st.Result)
	if err != nil {
		t.Fatal(err)
	}
	var res DSEResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("result is not a DSEResult: %v (%s)", err, raw)
	}
	return res
}

func TestDSEJobLifecycleAndCacheWin(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/dse", smallDSEBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var enq EnqueueResponse
	if err := json.Unmarshal(body, &enq); err != nil {
		t.Fatal(err)
	}
	if enq.JobID == "" || enq.Designs != 16 || !strings.HasPrefix(enq.PollURL, "/v1/jobs/") {
		t.Fatalf("enqueue response incomplete: %+v", enq)
	}

	st := pollJob(t, ts.URL, enq.JobID)
	if st.State != "succeeded" {
		t.Fatalf("job %s: %s (%s)", enq.JobID, st.State, st.Error)
	}
	res := decodeDSEResult(t, st)
	if res.Designs != 16 || res.Admissible == 0 || len(res.Top) != 3 {
		t.Fatalf("result incomplete: %+v", res)
	}
	if res.CacheMisses != 16 || res.CacheHits != 0 {
		t.Errorf("cold sweep cache deltas = %d hits / %d misses, want 0/16",
			res.CacheHits, res.CacheMisses)
	}
	for i := 1; i < len(res.Top); i++ {
		if res.Top[i].TBTMS < res.Top[i-1].TBTMS {
			t.Error("top designs not sorted by the tbt objective")
		}
	}

	// The identical grid again: every point must come from cache, and the
	// sweep must be measurably faster.
	resp, body = postJSON(t, ts.URL+"/v1/dse", smallDSEBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second enqueue: %d", resp.StatusCode)
	}
	var enq2 EnqueueResponse
	json.Unmarshal(body, &enq2)
	st2 := pollJob(t, ts.URL, enq2.JobID)
	if st2.State != "succeeded" {
		t.Fatalf("second job: %s (%s)", st2.State, st2.Error)
	}
	res2 := decodeDSEResult(t, st2)
	if res2.CacheHits != 16 || res2.CacheMisses != 0 {
		t.Errorf("warm sweep cache deltas = %d hits / %d misses, want 16/0",
			res2.CacheHits, res2.CacheMisses)
	}
	if res2.DurationMS >= res.DurationMS {
		t.Errorf("warm sweep (%.3f ms) not faster than cold (%.3f ms)",
			res2.DurationMS, res.DurationMS)
	}
	if res2.Top[0].Config != res.Top[0].Config {
		t.Errorf("cache changed the winner: %q vs %q", res2.Top[0].Config, res.Top[0].Config)
	}
}

// throttledBackend delays every node timing so a sweep reliably outlives
// the requests racing against it, no matter how warm the memo tables are.
type throttledBackend struct {
	engine *perf.Engine
	delay  time.Duration
}

func (b throttledBackend) Time(cfg arch.Config, tp int, n ir.Node) (perf.Time, error) {
	time.Sleep(b.delay)
	return ir.Analytic{Engine: b.engine}.Time(cfg, tp, n)
}

func TestDSEJobCancellation(t *testing.T) {
	// A ~16k-design sweep with a throttled timing backend takes long enough
	// (seconds, if left to finish) that the DELETE below lands while the
	// job is in flight; component memoization would otherwise finish it
	// before the cancel arrived.
	big := `{
		"grid": {
			"name": "big-sweep",
			"tpp_target": 4800,
			"systolic_dims": [16],
			"lanes_per_core": [1, 2, 4, 8],
			"l1_kb": [32, 64, 128, 192, 256, 320, 384, 448],
			"l2_mb": [8, 16, 24, 32, 40, 48, 56, 64],
			"hbm_bandwidth_gbs": [800, 1200, 1600, 2000, 2400, 2800, 3200, 3600],
			"device_bw_gbs": [400, 500, 600, 700]
		}
	}`
	s, ts := newTestServer(t)
	s.Explorer().Sim.Backend = throttledBackend{engine: perf.Default(), delay: 20 * time.Microsecond}
	resp, body := postJSON(t, ts.URL+"/v1/dse", big)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var enq EnqueueResponse
	if err := json.Unmarshal(body, &enq); err != nil {
		t.Fatal(err)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+enq.JobID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status %d, want 202", dresp.StatusCode)
	}

	st := pollJob(t, ts.URL, enq.JobID)
	if st.State != "cancelled" {
		t.Fatalf("state = %s, want cancelled (err %q)", st.State, st.Error)
	}
	if st.Result != nil {
		t.Error("cancelled job should carry no result")
	}
}

func TestJobsUnknownID(t *testing.T) {
	_, ts := newTestServer(t)
	if resp := getJSON(t, ts.URL+"/v1/jobs/job-999999", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET unknown job: %d, want 404", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/job-999999", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown job: %d, want 404", resp.StatusCode)
	}
}

func TestCancelFinishedJobConflicts(t *testing.T) {
	_, ts := newTestServer(t)
	_, body := postJSON(t, ts.URL+"/v1/dse", smallDSEBody)
	var enq EnqueueResponse
	if err := json.Unmarshal(body, &enq); err != nil {
		t.Fatal(err)
	}
	pollJob(t, ts.URL, enq.JobID)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+enq.JobID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("cancel finished job: %d, want 409", resp.StatusCode)
	}
}

// badDSEBodies are /v1/dse bodies that must get a 400, by what is wrong
// with each, and the text the error must contain, where one is pinned.
var badDSEBodies = []struct{ name, body, want string }{
	{"no grid", `{}`, ""},
	{"two grids", `{"table3":{"tpp":4800},"table5":true}`, ""},
	{"bad rule", `{"table3":{"tpp":4800},"rule":"oct2077"}`, ""},
	{"bad objective", `{"table3":{"tpp":4800},"objective":"vibes"}`, ""},
	{"bad tpp", `{"table3":{"tpp":-5}}`, ""},
	{"bad workload", `{"table3":{"tpp":4800},"workload":{"model":"gpt5"}}`, ""},
	// More cores than an int holds fit under the budget, or one core's
	// MACs overflow an int: refused, not accepted with 0 designs.
	{"tpp beyond int cores", `{"table3":{"tpp":1e30}}`, "table3.tpp value 1e+30"},
	{"dims beyond int MACs", `{"grid":{"tpp_target":4800,"systolic_dims":[4000000000],"lanes_per_core":[1],` +
		`"l1_kb":[192],"l2_mb":[40],"hbm_bandwidth_gbs":[2000],"device_bw_gbs":[600]}}`,
		"systolic_dims value 4000000000"},
}

func TestDSERejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	for _, c := range badDSEBodies {
		resp, data := postJSON(t, ts.URL+"/v1/dse", c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", c.name, resp.StatusCode, data)
		} else if !strings.Contains(string(data), c.want) {
			t.Errorf("%s: error %s, want it to name %q", c.name, data, c.want)
		}
	}
}

// TestDSEReportsExpandedDesigns pins that a job reports the designs it
// evaluates, not the grid's raw combination count: at TPP 100, Table 3's
// 512 combinations expand to 384 designs (one core of the 32x32 arrays
// with 4 or 8 lanes already reaches the budget), and at TPP 1 to none.
func TestDSEReportsExpandedDesigns(t *testing.T) {
	_, ts := newTestServer(t)
	for _, c := range []struct {
		body string
		want int
	}{
		{`{"table3":{"tpp":100},"top":3}`, 384},
		{`{"table3":{"tpp":1},"top":3}`, 0},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/dse", c.body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: status %d: %s", c.body, resp.StatusCode, body)
		}
		var enq EnqueueResponse
		if err := json.Unmarshal(body, &enq); err != nil {
			t.Fatal(err)
		}
		if enq.Designs != c.want {
			t.Errorf("%s: enqueue response reports %d designs, want %d", c.body, enq.Designs, c.want)
		}
		st := pollJob(t, ts.URL, enq.JobID)
		if st.State != "succeeded" {
			t.Fatalf("%s: job %s: %s (%s)", c.body, enq.JobID, st.State, st.Error)
		}
		if res := decodeDSEResult(t, st); res.Designs != c.want {
			t.Errorf("%s: result covers %d designs, want %d", c.body, res.Designs, c.want)
		}
	}
}

// TestDSERejectsOverflowingGrid posts an explicit grid of 1449 entries on
// every axis, whose 1449^6 combinations overflow int: the request must
// get a 400 naming the design limit, and the server must keep serving
// (an accepted job would panic expanding the grid on a queue worker).
func TestDSERejectsOverflowingGrid(t *testing.T) {
	_, ts := newTestServer(t)
	axis := "[" + strings.Repeat("1,", 1448) + "1]"
	body := fmt.Sprintf(`{"grid":{"tpp_target":4800,"systolic_dims":%[1]s,"lanes_per_core":%[1]s,`+
		`"l1_kb":%[1]s,"l2_mb":%[1]s,"hbm_bandwidth_gbs":%[1]s,"device_bw_gbs":%[1]s}}`, axis)
	resp, data := postJSON(t, ts.URL+"/v1/dse", body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "65536-design limit") {
		t.Fatalf("overflowing grid: status %d (%s), want 400 naming the design limit", resp.StatusCode, data)
	}
	resp, data = postJSON(t, ts.URL+"/v1/classify", `{"tpp":4992,"device_bw_gbs":600,"die_area_mm2":826}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classify after the overflowing grid: status %d (%s)", resp.StatusCode, data)
	}
}

// invalidGridValueCases are /v1/dse bodies whose explicit grid or Table
// 3 bandwidth list holds a value arch.Config.Validate rejects, each with
// the text its 400 must contain.
func invalidGridValueCases() []struct{ body, want string } {
	// grid returns a one-design grid with field set to value.
	grid := func(field, value string) string {
		var b strings.Builder
		b.WriteString(`{"grid":{"tpp_target":4800`)
		for _, f := range [][2]string{
			{"systolic_dims", "[16]"}, {"lanes_per_core", "[4]"}, {"l1_kb", "[192]"}, {"l2_mb", "[40]"},
			{"hbm_bandwidth_gbs", "[2000]"}, {"device_bw_gbs", "[600]"}, {"hbm_capacity_gb", "0"}, {"clock_ghz", "0"},
		} {
			if f[0] == field {
				f[1] = value
			}
			fmt.Fprintf(&b, `,%q:%s`, f[0], f[1])
		}
		b.WriteString("}}")
		return b.String()
	}
	negL1 := "[" + strings.Repeat("-1,", 4095) + "-1]"
	return []struct{ body, want string }{
		{grid("l1_kb", "[-1,192]"), "grid.l1_kb value -1"},
		{grid("l1_kb", negL1), "grid.l1_kb value -1"},
		{grid("l2_mb", "[0]"), "grid.l2_mb value 0"},
		{grid("hbm_bandwidth_gbs", "[-2000]"), "grid.hbm_bandwidth_gbs value -2000"},
		{grid("device_bw_gbs", "[-600]"), "grid.device_bw_gbs value -600"},
		{grid("systolic_dims", "[0,16]"), "grid.systolic_dims value 0"},
		{grid("lanes_per_core", "[4,-4]"), "grid.lanes_per_core value -4"},
		{grid("hbm_capacity_gb", "-80"), "grid.hbm_capacity_gb value -80"},
		{grid("clock_ghz", "-1.41"), "grid.clock_ghz value -1.41"},
		{`{"table3":{"tpp":4800,"device_bw_gbs":[-1]}}`, "table3.device_bw_gbs value -1"},
	}
}

// TestDSERejectsInvalidGridValues pins that a grid holding a value
// arch.Config.Validate rejects, in an explicit grid or in a Table 3
// bandwidth list, gets a 400 naming the field and the value. Accepted,
// such a grid's job would fail as a whole, losing its valid designs'
// results, and a large all-invalid grid would fail with one joined error
// per design in its status body.
func TestDSERejectsInvalidGridValues(t *testing.T) {
	_, ts := newTestServer(t)
	for _, c := range invalidGridValueCases() {
		resp, data := postJSON(t, ts.URL+"/v1/dse", c.body)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), c.want) {
			t.Errorf("%.120s: status %d (%s), want 400 naming %q", c.body, resp.StatusCode, data, c.want)
		}
	}
}

func TestDSEBackpressure503(t *testing.T) {
	s := New(Config{
		Workers: 1,
		Backlog: 1,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	// Hold the single worker, then fill the single backlog slot: the next
	// sweep must be refused. A held worker keeps the check from racing
	// the sweeps, which finish in about a millisecond.
	started, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	if _, err := s.Queue().Submit(func(ctx context.Context) (any, error) {
		close(started)
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	if resp, _ := postJSON(t, ts.URL+"/v1/dse", smallDSEBody); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep into the free backlog slot: status %d, want 202", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/dse", smallDSEBody); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("sweep past the full backlog: status %d, want 503", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	var h map[string]any
	if resp := getJSON(t, ts.URL+"/healthz", &h); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if h["status"] != "ok" {
		t.Errorf("healthz = %v", h)
	}
}

func TestMetricsSurface(t *testing.T) {
	_, ts := newTestServer(t)
	// Generate traffic: a classify, a bad request, and a cached sweep pair.
	postJSON(t, ts.URL+"/v1/classify", `{"tpp":4992,"device_bw_gbs":600}`)
	postJSON(t, ts.URL+"/v1/classify", `{broken`)
	for i := 0; i < 2; i++ {
		_, body := postJSON(t, ts.URL+"/v1/dse", smallDSEBody)
		var enq EnqueueResponse
		if err := json.Unmarshal(body, &enq); err != nil {
			t.Fatal(err)
		}
		pollJob(t, ts.URL, enq.JobID)
	}

	var m MetricsSnapshot
	if resp := getJSON(t, ts.URL+"/metrics", &m); resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	cls, ok := m.Requests["POST /v1/classify"]
	if !ok || cls.Count != 2 || cls.Errors != 1 {
		t.Errorf("classify counters = %+v", cls)
	}
	// Latencies come from the route's obs stage: positive and ordered.
	if cls.AvgMS <= 0 || cls.P50MS <= 0 || cls.P90MS < cls.P50MS || cls.P99MS < cls.P90MS {
		t.Errorf("classify latencies = %+v, want 0 < p50 <= p90 <= p99 and a mean", cls)
	}
	if m.Cache.Hits == 0 || m.Cache.HitRatio <= 0 || m.Cache.HitRatio > 1 {
		t.Errorf("cache stats = %+v, want visible hits from the repeated sweep", m.Cache)
	}
	if m.Queue.Workers != 2 || m.Queue.Completed < 2 {
		t.Errorf("queue stats = %+v", m.Queue)
	}
	if m.UptimeSeconds <= 0 {
		t.Error("uptime missing")
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t)
	if resp := getJSON(t, ts.URL+"/v1/classify", nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET classify: %d, want 405", resp.StatusCode)
	}
}

func TestConfigRequestDefaults(t *testing.T) {
	// Sparse config: secondary fields default to A100-class values.
	cr := ConfigRequest{
		CoreCount: 64, LanesPerCore: 4, SystolicDimX: 16, SystolicDimY: 16,
		L1KB: 192, L2MB: 40, HBMBandwidthGBs: 2000, DeviceBWGBs: 600,
	}
	cfg, err := cr.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.VectorWidth != 32 || cfg.HBMCapacityGB != 80 || cfg.ClockGHz == 0 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	if _, err := (ConfigRequest{Preset: "h100"}).Config(); err == nil {
		t.Error("unknown preset should fail")
	}
	if _, err := (ConfigRequest{Preset: "a100", Process: "3nm"}).Config(); err == nil {
		t.Error("unknown process should fail")
	}
	cfg, err = (ConfigRequest{Preset: "a100", L2MB: 80, Name: "grown"}).Config()
	if err != nil || cfg.L2MB != 80 || cfg.Name != "grown" || cfg.CoreCount != 108 {
		t.Errorf("preset override broken: %+v (%v)", cfg, err)
	}
	msg := fmt.Sprintf("%v", cfg)
	if !strings.Contains(msg, "grown") {
		t.Errorf("config string lost the name: %s", msg)
	}
}
