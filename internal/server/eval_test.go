package server

import (
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/perf"
)

// withEval returns body, a DSE request object, with an "eval" field.
func withEval(body, eval string) string {
	return strings.Replace(body, "{", `{"eval":"`+eval+`",`, 1)
}

// TestDSEEvalCompatibility pins the eval field's compatibility contract:
// every sweep batches, so "scalar" and "batch" are accepted no-ops that
// yield identical results, and any other value is still a 400.
func TestDSEEvalCompatibility(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/dse", withEval(smallDSEBody, "bogus"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("eval bogus: status %d (%s), want 400", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "scalar, batch") {
		t.Errorf("eval bogus: error %s does not name the valid values", body)
	}

	var tops [][]DesignSummary
	for _, eval := range []string{"scalar", "batch"} {
		resp, body := postJSON(t, ts.URL+"/v1/dse", withEval(smallDSEBody, eval))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("eval %s: status %d (%s), want 202", eval, resp.StatusCode, body)
		}
		var enq EnqueueResponse
		if err := json.Unmarshal(body, &enq); err != nil {
			t.Fatal(err)
		}
		st := pollJob(t, ts.URL, enq.JobID)
		if st.State != "succeeded" {
			t.Fatalf("eval %s: job %s (%s)", eval, st.State, st.Error)
		}
		res := decodeDSEResult(t, st)
		if len(res.Top) == 0 {
			t.Fatalf("eval %s: empty top list", eval)
		}
		tops = append(tops, res.Top)
	}
	if !reflect.DeepEqual(tops[0], tops[1]) {
		t.Errorf("eval scalar and batch disagree:\nscalar: %+v\nbatch:  %+v", tops[0], tops[1])
	}
}

// TestJournalReplaysScalarEvalSpec shuts a server down while a job
// submitted with "eval":"scalar" is mid-sweep, so its journalled spec
// carries the field, and asserts the restart still parses that spec and
// runs the job to completion.
func TestJournalReplaysScalarEvalSpec(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := journalServer(t, dir)
	// Throttled so the shutdown lands mid-sweep, never after it.
	s1.Explorer().Sim.Backend = throttledBackend{engine: perf.Default(), delay: 20 * time.Microsecond}
	resp, body := postJSON(t, ts1.URL+"/v1/dse", withEval(table3Body, "scalar"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var enq EnqueueResponse
	if err := json.Unmarshal(body, &enq); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	if err := s1.Close(); err != nil { // cancels the running sweep
		t.Fatal(err)
	}

	s2, ts2 := journalServer(t, dir)
	defer func() { ts2.Close(); s2.Close() }()
	st := pollJob(t, ts2.URL, enq.JobID)
	if st.State != "succeeded" {
		t.Fatalf("replayed eval=scalar job: %s (%s)", st.State, st.Error)
	}
	if res := decodeDSEResult(t, st); res.Designs != 512 {
		t.Fatalf("replayed sweep covered %d designs, want 512", res.Designs)
	}
}
