package server

import (
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"strings"
	"testing"
)

func decodeSearchResult(t *testing.T, st JobStatus) SearchResult {
	t.Helper()
	raw, err := json.Marshal(st.Result)
	if err != nil {
		t.Fatal(err)
	}
	var res SearchResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("result is not a SearchResult: %v (%s)", err, raw)
	}
	return res
}

func TestSearchJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"engine":"nsga2","budget":32,"seed":7,"tpp":4800,"workload":{"model":"llama3"}}`
	resp, data := postJSON(t, ts.URL+"/v1/search", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var enq EnqueueResponse
	if err := json.Unmarshal(data, &enq); err != nil {
		t.Fatal(err)
	}
	if enq.JobID == "" || enq.Designs != 32 || !strings.HasPrefix(enq.PollURL, "/v1/jobs/") {
		t.Fatalf("enqueue response incomplete: %+v", enq)
	}

	st := pollJob(t, ts.URL, enq.JobID)
	if st.State != "succeeded" {
		t.Fatalf("job %s: %s (%s)", enq.JobID, st.State, st.Error)
	}
	res := decodeSearchResult(t, st)
	if res.Engine != "nsga2" || res.Seed != 7 || res.Budget != 32 {
		t.Fatalf("result header wrong: %+v", res)
	}
	if res.Evaluations == 0 || res.Evaluations > 32 {
		t.Errorf("evaluations = %d, want 1..32", res.Evaluations)
	}
	if len(res.Front) == 0 {
		t.Error("front is empty")
	}
	if len(res.Objectives) != 2 || res.Objectives[0] != "ttft_ms" {
		t.Errorf("objectives = %v, want [ttft_ms area_mm2]", res.Objectives)
	}
	for _, d := range res.Front {
		if d.Config == "" || d.Objs == [2]float64{} {
			t.Errorf("front member incomplete: %+v", d)
		}
	}
	if res.CacheMisses == 0 {
		t.Error("cold search should miss the shared cache")
	}

	// The identical request again: every simulated design must come from
	// the shared explorer cache, and the run must stay bit-identical.
	resp, data = postJSON(t, ts.URL+"/v1/search", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second enqueue: %d", resp.StatusCode)
	}
	var enq2 EnqueueResponse
	if err := json.Unmarshal(data, &enq2); err != nil {
		t.Fatal(err)
	}
	st2 := pollJob(t, ts.URL, enq2.JobID)
	if st2.State != "succeeded" {
		t.Fatalf("second job: %s (%s)", st2.State, st2.Error)
	}
	res2 := decodeSearchResult(t, st2)
	if res2.CacheMisses != 0 || res2.CacheHits == 0 {
		t.Errorf("warm search cache deltas = %d hits / %d misses, want >0/0",
			res2.CacheHits, res2.CacheMisses)
	}
	if len(res2.Front) != len(res.Front) {
		t.Fatalf("front size changed across identical runs: %d vs %d", len(res2.Front), len(res.Front))
	}
	for i := range res.Front {
		if res2.Front[i].Config != res.Front[i].Config {
			t.Errorf("front[%d] changed across identical runs: %q vs %q",
				i, res2.Front[i].Config, res.Front[i].Config)
		}
	}
}

// TestSearchStreamFrontMatchesResult checks the two fronts a search job
// computes over the same designs and objectives: the stream hub's,
// which keeps one design per objective vector, and the search
// archive's, which keeps every tie. The last front frame must hold
// exactly the distinct objective vectors of the result's front.
func TestSearchStreamFrontMatchesResult(t *testing.T) {
	_, ts := newTestServer(t)
	for seed := 1; seed <= 3; seed++ {
		body := fmt.Sprintf(`{"engine":"nsga2","space":"jan2025","budget":192,"seed":%d}`, seed)
		resp, data := postJSON(t, ts.URL+"/v1/search", body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("seed %d: status %d: %s", seed, resp.StatusCode, data)
		}
		var enq EnqueueResponse
		if err := json.Unmarshal(data, &enq); err != nil {
			t.Fatal(err)
		}
		var last []StreamPoint
		var res SearchResult
		for _, f := range streamFrames(t, ts.URL, enq.JobID) {
			switch f.Type {
			case "front":
				last = f.Front
			case "summary":
				if f.Status == nil || f.Status.State != "succeeded" {
					t.Fatalf("seed %d: summary status = %+v", seed, f.Status)
				}
				res = decodeSearchResult(t, *f.Status)
			}
		}
		streamSet := make(map[[2]float64]bool, len(last))
		for _, p := range last {
			streamSet[[2]float64{p.X, p.Y}] = true
		}
		resultSet := make(map[[2]float64]bool, len(res.Front))
		for _, d := range res.Front {
			resultSet[d.Objs] = true
		}
		t.Logf("seed %d: stream front %d designs, result front %d designs over %d vectors",
			seed, len(last), len(res.Front), len(resultSet))
		if len(resultSet) == 0 || !maps.Equal(streamSet, resultSet) {
			t.Errorf("seed %d: stream front %v, result front vectors %v", seed, streamSet, resultSet)
		}
	}
}

func TestSearchDerivedSeedIsStable(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"engine":"pattern","budget":16,"workload":{"model":"llama3"}}`
	seeds := make([]uint64, 2)
	for i := range seeds {
		resp, data := postJSON(t, ts.URL+"/v1/search", body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		var enq EnqueueResponse
		if err := json.Unmarshal(data, &enq); err != nil {
			t.Fatal(err)
		}
		st := pollJob(t, ts.URL, enq.JobID)
		if st.State != "succeeded" {
			t.Fatalf("job: %s (%s)", st.State, st.Error)
		}
		res := decodeSearchResult(t, st)
		if res.Seed == 0 {
			t.Fatal("seed 0 should have been replaced by a derived seed")
		}
		seeds[i] = res.Seed
	}
	if seeds[0] != seeds[1] {
		t.Errorf("derived seed unstable: %d vs %d", seeds[0], seeds[1])
	}
}

// badSearchBodies are /v1/search bodies that must get a 400, by what is
// wrong with each, and the text the error must contain, where one is
// pinned.
var badSearchBodies = []struct{ name, body, want string }{
	{"no budget", `{"engine":"nsga2"}`, ""},
	{"bad engine", `{"engine":"gradient","budget":16}`, "nsga2"},
	{"bad space", `{"engine":"nsga2","budget":16,"space":"table9"}`, ""},
	{"bad workload", `{"engine":"nsga2","budget":16,"workload":{"model":"gpt5"}}`, ""},
	{"bad tpp", `{"engine":"nsga2","budget":16,"tpp":-5}`, ""},
	{"huge budget", `{"engine":"nsga2","budget":90000000}`, ""},
	{"unknown field", `{"engine":"nsga2","budget":16,"bogus":1}`, ""},
	{"tpp beyond int cores", `{"space":"table3","tpp":1e30,"budget":8}`, "tpp value 1e+30"},
}

func TestSearchRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	for _, c := range badSearchBodies {
		resp, data := postJSON(t, ts.URL+"/v1/search", c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", c.name, resp.StatusCode, data)
		}
		if !strings.Contains(string(data), c.want) {
			t.Errorf("%s: error %s, want it to name %q", c.name, data, c.want)
		}
	}
}
