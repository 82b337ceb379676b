package server

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzParseDSE pushes arbitrary bodies through the decode and validate
// half of POST /v1/dse: decodeJSON, then parseJob. Neither may panic,
// and a request parseJob accepts must not fail on its designs: when its
// grid expands to at most 4096 designs, every design passes
// arch.Config.Validate, so no accepted job fails as a whole for a value
// a 400 could have named.
func FuzzParseDSE(f *testing.F) {
	for _, c := range badDSEBodies {
		f.Add(c.body)
	}
	for _, c := range invalidGridValueCases() {
		f.Add(c.body)
	}
	f.Add(`{"table3":{"tpp":4800,"device_bw_gbs":[-1]}}`)
	f.Add(smallDSEBody) // accepted: the seeds reach the Validate check too
	s := New(Config{Workers: 1, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	f.Cleanup(func() { s.Close() })
	f.Fuzz(func(t *testing.T, body string) {
		r := httptest.NewRequest(http.MethodPost, "/v1/dse", strings.NewReader(body))
		var req *DSERequest
		js, err := s.parseJob(jobKindDSE, func(v any) error {
			req = v.(*DSERequest)
			return decodeJSON(httptest.NewRecorder(), r, v)
		})
		if err != nil {
			return
		}
		g, err := req.grid()
		if err != nil {
			t.Fatalf("accepted %q, but its grid fails: %v", body, err)
		}
		n, err := g.Designs()
		if err != nil {
			t.Fatalf("accepted %q, but a sweep refuses its grid: %v", body, err)
		}
		if n != js.designs {
			t.Fatalf("accepted %q announcing %d designs, but its grid has %d", body, js.designs, n)
		}
		if n > 4096 {
			return
		}
		for _, cfg := range g.Expand() {
			if err := cfg.Validate(); err != nil {
				t.Fatalf("accepted %q, but design %s is invalid: %v", body, cfg.Name, err)
			}
		}
	})
}

// FuzzParseSearch pushes arbitrary bodies through the decode and validate
// half of POST /v1/search: decodeJSON, then parseJob. Neither may panic,
// and a request parseJob accepts must hold a budget in [1, maxGridSize],
// announced as the job's designs, and a problem whose space has axes.
func FuzzParseSearch(f *testing.F) {
	for _, c := range badSearchBodies {
		f.Add(c.body)
	}
	f.Add(`{"engine":"nsga2","budget":64,"seed":42,"tpp":4800,"workload":{"model":"llama3"}}`)
	f.Add(`{"engine":"anneal","space":"jan2025","budget":16}`)
	s := New(Config{Workers: 1, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	f.Cleanup(func() { s.Close() })
	f.Fuzz(func(t *testing.T, body string) {
		r := httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(body))
		var req *SearchRequest
		js, err := s.parseJob(jobKindSearch, func(v any) error {
			req = v.(*SearchRequest)
			return decodeJSON(httptest.NewRecorder(), r, v)
		})
		if err != nil {
			return
		}
		if req.Budget < 1 || req.Budget > maxGridSize || js.designs != req.Budget {
			t.Fatalf("accepted %q with budget %d announcing %d designs, want a budget in [1, %d]",
				body, req.Budget, js.designs, maxGridSize)
		}
		prob, err := req.problem()
		if err != nil {
			t.Fatalf("accepted %q, but its problem fails: %v", body, err)
		}
		if len(prob.Space.Axes) == 0 {
			t.Fatalf("accepted %q, but its space %q has no axes", body, prob.Space.Name)
		}
	})
}
