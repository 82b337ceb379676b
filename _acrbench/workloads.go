package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/dse"
	"repro/internal/model"
	"repro/internal/server"
	"repro/internal/store"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlCold     = "dse-cold"
	wlWarm     = "dse-warm"
	wlSearch   = "search-jan2025"
	wlClassify = "classify"
)

// searchBudget is the evaluation budget of every search-jan2025 job.
const searchBudget = 384

type opKind int

const (
	kindDSE opKind = iota
	kindSearch
	kindClassify
)

// op is one generated request: the wire body the server sees, plus the
// parsed form the correctness checks and the traced replay use.
type op struct {
	kind     opKind
	path     string
	body     []byte
	dse      *server.DSERequest
	search   *server.SearchRequest
	classify *server.ClassifyRequest
	// want is what a correct result reports: len(grid.Expand()) designs
	// for a sweep, the budget in evaluations for a search, 1 for classify.
	want int
	// cold marks a sweep whose workload no earlier job used, so a correct
	// result reports cache_hits == 0.
	cold bool
}

// workload is one traffic mix. Every round of a run starts a fresh
// server, runs the setup ops untimed, then drives perRound ops from the
// seeded stream through closed-loop clients.
type workload struct {
	name     string
	clients  int
	perRound int
	setup    []*op
	gen      generator
}

// generator yields a workload's seeded op stream; next returns nil once
// the stream is exhausted (dse-cold draws workloads without replacement).
type generator interface {
	next() *op
}

func newWorkload(name string, seed uint64) (*workload, error) {
	rng := rand.New(rand.NewPCG(seed, streamOf(name)))
	switch name {
	case wlCold:
		return &workload{name: name, clients: 1, perRound: 8, gen: newColdGen(rng)}, nil
	case wlWarm:
		return &workload{name: name, clients: 2, perRound: 48, setup: warmSet(), gen: &warmGen{rng: rng}}, nil
	case wlSearch:
		return &workload{name: name, clients: 1, perRound: 8, gen: newSearchGen(rng)}, nil
	case wlClassify:
		return &workload{name: name, clients: 2, perRound: 2000, gen: &classifyGen{rng: rng}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (%s, %s, %s, %s)", name, wlCold, wlWarm, wlSearch, wlClassify)
}

// streamOf gives each workload its own PCG stream, so one seed drives
// four unrelated request sequences.
func streamOf(name string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	return h
}

var (
	rules      = []string{"none", "oct2022", "oct2023"}
	objectives = []string{"ttft", "tbt", "ttftcost", "tbtcost"}
)

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request types always marshal
	}
	return b
}

// dseOp builds a sweep op and its expected design count.
func dseOp(req server.DSERequest) *op {
	g, _ := gridOf(req)
	return &op{kind: kindDSE, path: "/v1/dse", body: mustJSON(req), dse: &req, want: len(g.Expand())}
}

// gridOf mirrors how the service turns a table3/table5 selection into a
// grid (the benchmark never sends explicit grids).
func gridOf(req server.DSERequest) (dse.Grid, error) {
	switch {
	case req.Table3 != nil:
		bw := req.Table3.DeviceBWGBs
		if len(bw) == 0 {
			bw = []float64{600}
		}
		return dse.Table3(req.Table3.TPP, bw), nil
	case req.Table5:
		return dse.Table5(), nil
	}
	return dse.Grid{}, fmt.Errorf("request selects no table")
}

// workloadOf materialises a request's inference workload exactly as the
// service does.
func workloadOf(w *server.WorkloadRequest) (model.Workload, error) {
	if w == nil {
		return server.WorkloadRequest{}.Workload()
	}
	return w.Workload()
}

// ---- dse-cold ----

// coldTuple is one GPT-3 workload shape; no tuple repeats within a run.
type coldTuple struct{ batch, in, out int }

type coldGen struct {
	rng  *rand.Rand
	pool []coldTuple
	i    int
}

func newColdGen(rng *rand.Rand) *coldGen {
	var pool []coldTuple
	for b := 8; b <= 64; b += 8 {
		for in := 256; in <= 4096; in += 128 {
			for out := 128; out <= 2048; out += 64 {
				pool = append(pool, coldTuple{b, in, out})
			}
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return &coldGen{rng: rng, pool: pool}
}

// next cycles three Table 3 jobs (TPP 4800, 600 GB/s) and one Table 5
// job, each on a workload tuple never used before in the run.
func (g *coldGen) next() *op {
	if g.i >= len(g.pool) {
		return nil
	}
	t := g.pool[g.i]
	req := server.DSERequest{
		Workload:  &server.WorkloadRequest{Model: "gpt3", Batch: t.batch, InputLen: t.in, OutputLen: t.out},
		Rule:      rules[g.rng.IntN(len(rules))],
		Objective: objectives[g.rng.IntN(len(objectives))],
	}
	if g.i%4 == 3 {
		req.Table5 = true
	} else {
		req.Table3 = &server.Table3Request{TPP: 4800, DeviceBWGBs: []float64{600}}
	}
	g.i++
	o := dseOp(req)
	o.cold = true
	return o
}

// ---- dse-warm ----

// warmShapes are the sweeps the warm set covers; every dse-warm job is
// one of them, so every design it asks for is already in the store.
func warmShapes() []server.DSERequest {
	gpt3 := &server.WorkloadRequest{Model: "gpt3"}
	return []server.DSERequest{
		{Table3: &server.Table3Request{TPP: 4800, DeviceBWGBs: []float64{600}}, Workload: gpt3},
		{Table3: &server.Table3Request{TPP: 4800, DeviceBWGBs: []float64{600}}, Workload: &server.WorkloadRequest{Model: "llama3"}},
		{Table5: true, Workload: gpt3},
		{Table3: &server.Table3Request{TPP: 4800, DeviceBWGBs: []float64{400, 500, 600}}, Workload: gpt3},
		{Table3: &server.Table3Request{TPP: 4800, DeviceBWGBs: []float64{400}}, Workload: gpt3},
		{Table3: &server.Table3Request{TPP: 4800, DeviceBWGBs: []float64{500}}, Workload: gpt3},
	}
}

// warmSet is the setup every dse-warm round sweeps before timing: the
// first four shapes (the last two are subsets of the fourth).
func warmSet() []*op {
	var ops []*op
	for _, req := range warmShapes()[:4] {
		ops = append(ops, dseOp(req))
	}
	return ops
}

type warmGen struct {
	rng   *rand.Rand
	order []int
}

// next picks the shapes in seeded permutations, so every six jobs ask
// for each shape once and the job mix does not vary with the seed.
func (g *warmGen) next() *op {
	shapes := warmShapes()
	if len(g.order) == 0 {
		g.order = g.rng.Perm(len(shapes))
	}
	req := shapes[g.order[0]]
	g.order = g.order[1:]
	req.Rule = rules[g.rng.IntN(len(rules))]
	req.Objective = objectives[g.rng.IntN(len(objectives))]
	req.Top = 1 + g.rng.IntN(10)
	return dseOp(req)
}

// ---- search-jan2025 ----

type searchGen struct {
	rng  *rand.Rand
	seen map[uint64]bool
}

func newSearchGen(rng *rand.Rand) *searchGen {
	return &searchGen{rng: rng, seen: make(map[uint64]bool)}
}

// next asks for a jan2025 search with the default engine and a fresh
// non-zero seed.
func (g *searchGen) next() *op {
	seed := g.rng.Uint64()
	for seed == 0 || g.seen[seed] {
		seed = g.rng.Uint64()
	}
	g.seen[seed] = true
	req := server.SearchRequest{Space: "jan2025", Budget: searchBudget, Seed: seed}
	return &op{kind: kindSearch, path: "/v1/search", body: mustJSON(req), search: &req, want: searchBudget}
}

// ---- classify ----

type classifyGen struct {
	rng *rand.Rand
	n   int
}

// next draws a datasheet body: TPP, device bandwidth and die area, with
// an HBM package on every fourth body.
func (g *classifyGen) next() *op {
	milli := func(lo, hi float64) float64 { return math.Round((lo+g.rng.Float64()*(hi-lo))*1000) / 1000 }
	req := server.ClassifyRequest{
		TPP:         milli(100, 7000),
		DeviceBWGBs: milli(0, 1200),
		DieAreaMM2:  milli(50, 900),
	}
	if g.n%4 == 0 {
		req.HBM = &server.HBMRequest{BandwidthGBs: milli(500, 5000), PackageAreaMM2: milli(1000, 3000)}
	}
	g.n++
	return &op{kind: kindClassify, path: "/v1/classify", body: mustJSON(req), classify: &req, want: 1}
}

// ---- generator self-tests ----

// selfTest checks the generator contracts the measurements rely on and
// returns one line per failed check.
func selfTest(name string, seed uint64) []string {
	var fails []string
	seq := func(s uint64) [][]byte {
		w, err := newWorkload(name, s)
		if err != nil {
			return nil
		}
		var out [][]byte
		for i := 0; i < 3*w.perRound; i++ {
			o := w.gen.next()
			if o == nil {
				break
			}
			out = append(out, o.body)
		}
		return out
	}
	a, b, c := seq(seed), seq(seed), seq(seed+1)
	if !equalSeq(a, b) {
		fails = append(fails, "same seed gave different request sequences")
	}
	if equalSeq(a, c) {
		fails = append(fails, "seeds differing by one gave the same request sequence")
	}
	switch name {
	case wlCold:
		seen := make(map[coldTuple]bool)
		for _, t := range newColdGen(rand.New(rand.NewPCG(seed, streamOf(name)))).pool {
			if seen[t] {
				fails = append(fails, fmt.Sprintf("dse-cold pool repeats workload %+v", t))
			}
			seen[t] = true
		}
	case wlWarm:
		n, extra := warmSetCoverage()
		if n >= dse.DefaultCacheEntries {
			fails = append(fails, fmt.Sprintf("warm set has %d unique points, not under dse.DefaultCacheEntries=%d", n, dse.DefaultCacheEntries))
		}
		if extra > 0 {
			fails = append(fails, fmt.Sprintf("%d points of the dse-warm picks are outside the warm set", extra))
		}
	}
	return fails
}

func equalSeq(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// warmSetCoverage counts the warm set's unique point keys and the points
// of every dse-warm pick shape that fall outside it.
func warmSetCoverage() (unique, outside int) {
	keys := func(req server.DSERequest) []store.Key {
		g, _ := gridOf(req)
		wl, _ := workloadOf(req.Workload)
		var ks []store.Key
		for _, cfg := range g.Expand() {
			ks = append(ks, dse.PointKey(cfg, wl))
		}
		return ks
	}
	set := make(map[store.Key]bool)
	for _, o := range warmSet() {
		for _, k := range keys(*o.dse) {
			set[k] = true
		}
	}
	for _, req := range warmShapes() {
		for _, k := range keys(req) {
			if !set[k] {
				outside++
			}
		}
	}
	return len(set), outside
}

// runChecker checks the generator contracts on the ops a run actually
// sends: dse-cold never repeats a workload tuple and search seeds are
// distinct and non-zero. It keeps only the keys it must compare.
type runChecker struct {
	workloads map[server.WorkloadRequest]bool
	seeds     map[uint64]bool
	fails     []string
}

func newRunChecker() *runChecker {
	return &runChecker{workloads: make(map[server.WorkloadRequest]bool), seeds: make(map[uint64]bool)}
}

func (c *runChecker) add(o *op) {
	switch {
	case o.cold:
		if c.workloads[*o.dse.Workload] {
			c.fails = append(c.fails, fmt.Sprintf("dse-cold repeated workload %+v", *o.dse.Workload))
		}
		c.workloads[*o.dse.Workload] = true
	case o.search != nil:
		if o.search.Seed == 0 || c.seeds[o.search.Seed] {
			c.fails = append(c.fails, fmt.Sprintf("search seed %d is zero or repeated", o.search.Seed))
		}
		c.seeds[o.search.Seed] = true
	}
}
