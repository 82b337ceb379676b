package server

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/obs"
)

// TestDSETraceAttributesSweepStages is the tentpole's acceptance path: a
// POST /v1/dse must yield a span tree that joins the request span to the
// async job's queue wait, lowering and evaluation windows — even though
// the job runs after the request context has died. The windows' tallies
// flip from all misses on the first post to all hits on a repeat.
func TestDSETraceAttributesSweepStages(t *testing.T) {
	s, ts := newTestServer(t)
	var enq EnqueueResponse
	var byName map[string][]obs.SpanRecord
	var spans []obs.SpanRecord
	for run, want := range []string{"misses", "hits"} {
		resp, body := postJSON(t, ts.URL+"/v1/dse", smallDSEBody)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		enq = EnqueueResponse{}
		if err := json.Unmarshal(body, &enq); err != nil {
			t.Fatal(err)
		}
		if enq.Trace == "" {
			t.Fatal("enqueue response carries no trace ID")
		}
		if st := pollJob(t, ts.URL, enq.JobID); st.State != "succeeded" {
			t.Fatalf("job: %s (%s)", st.State, st.Error)
		}

		spans = s.Obs().Trace(enq.Trace)
		byID := map[string]obs.SpanRecord{}
		byName = map[string][]obs.SpanRecord{}
		for _, sr := range spans {
			byID[sr.Span] = sr
			byName[sr.Name] = append(byName[sr.Name], sr)
		}
		for _, name := range []string{
			"POST /v1/dse", "queue.wait", "dse.job", "dse.sweep",
			"dse.lower", "dse.window",
		} {
			if len(byName[name]) == 0 {
				t.Errorf("run %d: trace %s has no %q span", run, enq.Trace, name)
			}
		}
		// Every window hangs off the sweep, and together they cover the
		// 16 designs — simulated on the first run, memory hits on the
		// repeat.
		covered := 0
		for _, sr := range byName["dse.window"] {
			if p := byID[sr.Parent]; p.Name != "dse.sweep" {
				t.Errorf("run %d: dse.window parent = %q, want dse.sweep", run, p.Name)
			}
			var n, got any
			for _, a := range sr.Attrs {
				switch a.Key {
				case "configs":
					n = a.Value
				case want:
					got = a.Value
				}
			}
			if got != n {
				t.Errorf("run %d: window has %s = %v of %v configs", run, want, got, n)
			}
			if c, ok := n.(int); ok {
				covered += c
			}
		}
		if covered != 16 {
			t.Errorf("run %d: windows cover %d designs, want 16", run, covered)
		}
	}
	// The queue wait and the job both hang off the request span, proving
	// the detach/attach hand-off preserved the parent link.
	req := byName["POST /v1/dse"][0]
	for _, name := range []string{"queue.wait", "dse.job"} {
		if len(byName[name]) == 0 {
			continue
		}
		if p := byName[name][0].Parent; p != req.Span {
			t.Errorf("%s parent = %q, want the request span %q", name, p, req.Span)
		}
	}
	// Every span of the trace shares the request's trace ID.
	for _, sr := range spans {
		if sr.Trace != enq.Trace {
			t.Errorf("span %s (%s) in trace %s, want %s", sr.Span, sr.Name, sr.Trace, enq.Trace)
		}
	}

	// The HTTP trace endpoint serves the same spans.
	var dump obs.Dump
	if resp := getJSON(t, ts.URL+"/debug/obs/trace?trace="+enq.Trace, &dump); resp.StatusCode != http.StatusOK {
		t.Fatalf("trace endpoint status %d", resp.StatusCode)
	}
	if len(dump.Spans) != len(spans) {
		t.Errorf("endpoint returned %d spans, recorder has %d", len(dump.Spans), len(spans))
	}

	// The tree rendering names the stages and marks the trace root.
	httpResp, err := http.Get(ts.URL + "/debug/obs/trace?trace=" + enq.Trace + "&format=tree")
	if err != nil {
		t.Fatal(err)
	}
	tree, _ := io.ReadAll(httpResp.Body)
	httpResp.Body.Close()
	if ct := httpResp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("tree content type = %q", ct)
	}
	for _, want := range []string{"POST /v1/dse", "queue.wait", "dse.sweep", "trace=" + enq.Trace} {
		if !strings.Contains(string(tree), want) {
			t.Errorf("tree missing %q:\n%s", want, tree)
		}
	}
}

func TestObsStatsEndpointServesHistograms(t *testing.T) {
	s, ts := newTestServer(t)
	// An explicit backend takes the per-design path, which times each
	// design through sim.SimulateGraphContext and its per-node backend
	// histogram; the default batch path records neither stage.
	s.Explorer().Sim.Backend = ir.Analytic{Engine: s.Explorer().Sim.Engine}
	resp, body := postJSON(t, ts.URL+"/v1/simulate",
		`{"config":{"preset":"a100"},"workload":{"model":"llama3"}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate status %d: %s", resp.StatusCode, body)
	}
	var stats []obs.StageStats
	if resp := getJSON(t, ts.URL+"/debug/obs/stats", &stats); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	byStage := map[string]obs.StageStats{}
	for _, st := range stats {
		byStage[st.Stage] = st
	}
	// One simulate request exercises the route span, the sweep machinery
	// and the per-node backend histogram.
	for _, stage := range []string{"POST /v1/simulate", "sim.simulate", "ir.backend"} {
		st, ok := byStage[stage]
		if !ok || st.Count == 0 {
			t.Errorf("stage %q missing or empty: %+v", stage, st)
			continue
		}
		if st.P99Sec < st.P50Sec || st.MaxSec < st.MinSec || st.MeanSec <= 0 {
			t.Errorf("stage %q stats inconsistent: %+v", stage, st)
		}
	}
	if byStage["ir.backend"].Count < 8 {
		t.Errorf("ir.backend count = %d, want one sample per timed node", byStage["ir.backend"].Count)
	}
}

// TestTracingDisabledServesFastPath pins the nil-recorder path end to
// end: negative TraceCapacity must disable span collection, hide the
// debug endpoints behind 404, and omit the trace ID from enqueue acks —
// while the API itself keeps working.
func TestTracingDisabledServesFastPath(t *testing.T) {
	s := New(Config{
		Workers:       2,
		Backlog:       8,
		TraceCapacity: -1,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	if s.Obs() != nil {
		t.Fatal("negative TraceCapacity should leave the recorder nil")
	}
	resp, body := postJSON(t, ts.URL+"/v1/dse", smallDSEBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var enq EnqueueResponse
	if err := json.Unmarshal(body, &enq); err != nil {
		t.Fatal(err)
	}
	if enq.Trace != "" {
		t.Errorf("disabled tracing still issued trace ID %q", enq.Trace)
	}
	if st := pollJob(t, ts.URL, enq.JobID); st.State != "succeeded" {
		t.Fatalf("job without tracing: %s (%s)", st.State, st.Error)
	}
	for _, path := range []string{"/debug/obs/trace", "/debug/obs/stats"} {
		if resp := getJSON(t, ts.URL+path, nil); resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s status = %d, want 404 when disabled", path, resp.StatusCode)
		}
	}
	// Without stage histograms, /metrics reports counts alone.
	var m MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &m)
	if ep := m.Requests["POST /v1/dse"]; ep != (EndpointSnapshot{Count: 1}) {
		t.Errorf("POST /v1/dse metrics without tracing = %+v, want count 1 and no latencies", ep)
	}
}

func TestPprofEndpointsMounted(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status %d", resp.StatusCode)
	}
	data, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(data), "goroutine") {
		t.Error("pprof index does not list profiles")
	}
}
