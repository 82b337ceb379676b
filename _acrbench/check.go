package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"reflect"
	"sort"

	"repro/internal/dse"
	"repro/internal/policy"
	"repro/internal/search"
	"repro/internal/server"
)

// referenceChecks compares a seeded sample of the first round's job
// answers exactly with in-process references, outside the timed window:
// sweep top-k against an uncached dse.Explorer, searches against
// search.Runner.Run with the same engine and seed. (Every classify
// answer is compared with the policy verdicts as its round ends.) It
// returns one line per mismatch and the number of jobs compared.
func referenceChecks(ctx context.Context, rounds []*round, seed uint64) (fails []string, compared int) {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	var jobs []*sample
	for _, rd := range rounds {
		for _, s := range rd.kept {
			if s.ok() && s.op.kind != kindClassify {
				jobs = append(jobs, s)
			}
		}
	}
	const perRun = 3
	for k := 0; k < perRun && len(jobs) > 0; k++ {
		i := rng.IntN(len(jobs))
		s := jobs[i]
		jobs = append(jobs[:i], jobs[i+1:]...)
		var fail string
		switch s.op.kind {
		case kindDSE:
			fail = checkDSE(ctx, s)
		case kindSearch:
			fail = checkSearch(ctx, s)
		}
		if fail != "" {
			fails = append(fails, fail)
		}
		compared++
	}
	return fails, compared
}

// keepFor and metricFor restate the service's documented rule and
// objective semantics.
func keepFor(rule string) func(dse.Point) bool {
	switch rule {
	case "oct2022":
		return func(p dse.Point) bool {
			return p.FitsReticle && !policy.Oct2022(policy.Metrics{TPP: p.TPP, DeviceBWGBs: p.Config.DeviceBWGBs}).Restricted()
		}
	case "oct2023":
		return dse.Point.Compliant
	}
	return func(p dse.Point) bool { return p.FitsReticle }
}

func metricFor(objective string) func(dse.Point) float64 {
	switch objective {
	case "tbt":
		return dse.MetricTBT
	case "ttftcost":
		return dse.MetricTTFTCost
	case "tbtcost":
		return dse.MetricTBTCost
	}
	return dse.MetricTTFT
}

// rank applies a request's rule, objective and top-k to evaluated points
// and renders the result the way the service reports it.
func rank(points []dse.Point, req *server.DSERequest) []server.DesignSummary {
	metric := metricFor(req.Objective)
	adm := dse.Filter(points, keepFor(req.Rule))
	sort.Slice(adm, func(i, j int) bool { return metric(adm[i]) < metric(adm[j]) })
	top := req.Top
	if top <= 0 {
		top = 5
	}
	if top > len(adm) {
		top = len(adm)
	}
	var out []server.DesignSummary
	for i, p := range adm[:top] {
		out = append(out, server.DesignSummary{
			Rank: i + 1, Config: p.Config.Name, TTFTMS: p.TTFT() * 1e3, TBTMS: p.TBT() * 1e3,
			AreaMM2: p.AreaMM2, PD: p.PD, DieCostUSD: p.DieCostUSD,
		})
	}
	return out
}

func checkDSE(ctx context.Context, s *sample) string {
	g, err := gridOf(*s.op.dse)
	if err != nil {
		return "reference: " + err.Error()
	}
	wl, err := workloadOf(s.op.dse.Workload)
	if err != nil {
		return "reference: " + err.Error()
	}
	ex := dse.NewExplorer()
	ex.Cache = nil
	points, err := ex.RunContext(ctx, g, wl)
	if err != nil {
		return "reference: " + err.Error()
	}
	if want := rank(points, s.op.dse); !reflect.DeepEqual(s.dse.Top, want) {
		return fmt.Sprintf("dse top-k differs from the uncached reference: got %+v want %+v", s.dse.Top, want)
	}
	return ""
}

func checkSearch(ctx context.Context, s *sample) string {
	wl, err := workloadOf(s.op.search.Workload)
	if err != nil {
		return "reference: " + err.Error()
	}
	prob := search.Jan2025Problem(wl)
	eng, err := search.New("nsga2", prob.Space, s.op.search.Seed)
	if err != nil {
		return "reference: " + err.Error()
	}
	out, err := (&search.Runner{}).Run(ctx, prob, eng, s.op.search.Budget, s.op.search.Seed)
	if err != nil {
		return "reference: " + err.Error()
	}
	got := *s.search
	got.CacheHits, got.CacheMisses, got.DurationMS = 0, 0, 0
	want := server.SearchResult{
		Engine: out.Engine, Space: out.Space, Seed: out.Seed, Budget: out.Budget,
		Evaluations: out.Evaluations, Proposals: out.Proposals, Generations: out.Generations,
		Objectives: out.Objectives,
	}
	for _, r := range out.Front {
		want.Front = append(want.Front, server.SearchDesign{
			Config: r.Point.Config.Name, Objs: r.Objs, TTFTMS: r.Point.TTFT() * 1e3,
			TBTMS: r.Point.TBT() * 1e3, AreaMM2: r.Point.AreaMM2, TPP: r.Point.TPP,
		})
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("search result differs from search.Runner.Run: got %+v want %+v", got, want)
	}
	return ""
}

// classifyReference computes the verdicts /v1/classify documents for a
// datasheet body.
func classifyReference(req *server.ClassifyRequest) server.ClassifyResponse {
	m := policy.Metrics{TPP: req.TPP, DeviceBWGBs: req.DeviceBWGBs, DieAreaMM2: req.DieAreaMM2}
	resp := server.ClassifyResponse{
		TPP: m.TPP, DeviceBWGBs: m.DeviceBWGBs, DieAreaMM2: m.DieAreaMM2,
		PerformanceDensity: m.PerformanceDensity(),
		Oct2022:            policy.Oct2022(m).String(),
	}
	m.Segment = policy.DataCenter
	dc := policy.Oct2023(m)
	resp.Oct2023DataCenter = dc.String()
	m.Segment = policy.NonDataCenter
	resp.Oct2023Consumer = policy.Oct2023(m).String()
	m.Segment = policy.DataCenter
	resp.Restricted = policy.Oct2022(m).Restricted() || dc.Restricted()
	if minA, ok := policy.MinAreaToAvoidOct2023(m.TPP, policy.NotApplicable); ok && minA > m.DieAreaMM2 {
		resp.MinAreaToEscapeOct2023MM2 = minA
	}
	if req.HBM != nil {
		resp.HBMDec2024 = policy.Dec2024HBM(policy.HBMPackage{
			BandwidthGBs: req.HBM.BandwidthGBs, PackageAreaMM2: req.HBM.PackageAreaMM2,
		}).String()
	}
	return resp
}

func checkClassify(s *sample) string {
	var got server.ClassifyResponse
	if err := json.Unmarshal(s.body, &got); err != nil {
		return "classify body: " + err.Error()
	}
	if want := classifyReference(s.op.classify); got != want {
		return fmt.Sprintf("classify verdicts differ from the policy reference: got %+v want %+v", got, want)
	}
	return ""
}
