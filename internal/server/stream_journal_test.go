package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/dse"
	"repro/internal/perf"
)

// table3Body is the paper's full 512-design Table 3 sweep.
const table3Body = `{"table3":{"tpp":4800},"workload":{"model":"llama3"},"objective":"ttft","top":3}`

// readFrames consumes an NDJSON job stream to EOF, decoding every line.
func readFrames(t *testing.T, r io.Reader) []StreamFrame {
	t.Helper()
	var frames []StreamFrame
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20) // front frames can be wide
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var f StreamFrame
		if err := json.Unmarshal(line, &f); err != nil {
			t.Fatalf("invalid NDJSON line %q: %v", line, err)
		}
		frames = append(frames, f)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	return frames
}

// assertNonDominated fails if any front member weakly dominates another
// — the invariant every emitted front frame must satisfy.
func assertNonDominated(t *testing.T, front []StreamPoint, seq uint64) {
	t.Helper()
	for i, a := range front {
		for j, b := range front {
			if i == j {
				continue
			}
			if a.X <= b.X && a.Y <= b.Y {
				t.Fatalf("front frame seq %d: member %d (%.4g,%.4g) dominates member %d (%.4g,%.4g)",
					seq, i, a.X, a.Y, j, b.X, b.Y)
			}
		}
	}
}

// TestJobStreamDeliversIncrementalFrames runs the 512-design Table 3
// sweep against a throttled backend and asserts the stream is actually
// incremental: point frames arrive before the job finishes, every
// front frame is non-dominated, and the summary frame closes the
// stream with the succeeded status.
func TestJobStreamDeliversIncrementalFrames(t *testing.T) {
	s, ts := newTestServer(t)
	// Throttled just enough that the subscriber (attached milliseconds
	// after the POST) reliably overlaps the sweep.
	s.Explorer().Sim.Backend = throttledBackend{engine: perf.Default(), delay: 2 * time.Microsecond}

	resp, body := postJSON(t, ts.URL+"/v1/dse", table3Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var enq EnqueueResponse
	if err := json.Unmarshal(body, &enq); err != nil {
		t.Fatal(err)
	}
	if enq.StreamURL != "/v1/jobs/"+enq.JobID+"/stream" {
		t.Fatalf("stream URL = %q", enq.StreamURL)
	}

	sresp, err := http.Get(ts.URL + enq.StreamURL)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", sresp.StatusCode)
	}
	if ct := sresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}

	frames := readFrames(t, sresp.Body)
	if len(frames) == 0 {
		t.Fatal("empty stream")
	}
	var points, fronts int
	pointBeforeSummary := false
	for i, f := range frames {
		switch f.Type {
		case "point":
			points++
			if f.Point == nil || f.Point.Config == "" {
				t.Fatalf("frame %d: point frame without a design: %+v", i, f)
			}
		case "front":
			fronts++
			if len(f.Front) == 0 {
				t.Fatalf("frame %d: empty front frame", i)
			}
			assertNonDominated(t, f.Front, f.Seq)
		case "summary":
			if i != len(frames)-1 {
				t.Fatalf("summary frame at %d is not last of %d", i, len(frames))
			}
			if points == 0 {
				t.Fatal("no point frame arrived before the summary")
			}
			pointBeforeSummary = true
			if f.Status == nil || f.Status.State != "succeeded" {
				t.Fatalf("summary status = %+v", f.Status)
			}
			res := decodeDSEResult(t, *f.Status)
			if res.Designs != 512 {
				t.Fatalf("summary result covers %d designs, want 512", res.Designs)
			}
		default:
			t.Fatalf("frame %d: unknown type %q", i, f.Type)
		}
	}
	if !pointBeforeSummary {
		t.Fatal("stream ended without a summary frame")
	}
	if fronts == 0 {
		t.Error("a 512-design sweep should emit running front frames")
	}
	// The job itself must agree with the stream's summary.
	st := pollJob(t, ts.URL, enq.JobID)
	if st.State != "succeeded" {
		t.Fatalf("job state %s after streamed completion", st.State)
	}
}

// TestJobStreamSSEFormat spot-checks the SSE encoding: data:-prefixed
// frames under the event-stream content type.
func TestJobStreamSSEFormat(t *testing.T) {
	_, ts := newTestServer(t)
	_, body := postJSON(t, ts.URL+"/v1/dse", smallDSEBody)
	var enq EnqueueResponse
	if err := json.Unmarshal(body, &enq); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + enq.StreamURL + "?format=sse")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte("data: {")) || !bytes.Contains(data, []byte(`"type":"summary"`)) {
		t.Fatalf("SSE stream malformed: %.200s", data)
	}
}

// TestJobStreamUnknownJob404s covers the no-hub, no-journal path.
func TestJobStreamUnknownJob404s(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/jobs/job-999999/stream")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("stream of unknown job: %d, want 404", resp.StatusCode)
	}
}

// TestStreamHubRegisteredAfterJobTerminal is the regression for the hub
// registration race: the queue may run a job to its terminal state
// before enqueueDSE/enqueueSearch register its stream hub, when the
// terminal hook finds no hub to finish. That interleaving is forced
// here — the job finishes and the hook returns before registration —
// and the stream must still deliver the summary frame.
func TestStreamHubRegisteredAfterJobTerminal(t *testing.T) {
	s, ts := newTestServer(t)
	hooked := make(chan struct{})
	s.queue.SetTerminalHook(func(st JobStatus) {
		s.onJobTerminal(st)
		close(hooked)
	})
	job, err := s.queue.Submit(func(context.Context) (any, error) { return "done", nil })
	if err != nil {
		t.Fatal(err)
	}
	<-hooked
	s.registerStream(job.ID, newStreamHub(dse.MetricTTFT, dse.MetricArea, func(dse.Point) bool { return true }))

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+job.ID+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("stream of a finished job: %v", err)
	}
	defer resp.Body.Close()
	frames := readFrames(t, resp.Body)
	if len(frames) != 1 || frames[0].Type != "summary" || frames[0].Status == nil ||
		frames[0].Status.ID != job.ID || frames[0].Status.State != "succeeded" {
		t.Fatalf("stream frames = %+v, want the job's succeeded summary alone", frames)
	}
}

// TestIdenticalDSEJobsEachStreamAndSimulateOnce submits four identical
// Table 3 sweeps at once with the default evaluator and releases them
// together onto four workers. Every job runs and streams its own sweep,
// while the point store's single-flight layer still simulates each of
// the grid's 512 designs exactly once across the four.
func TestIdenticalDSEJobsEachStreamAndSimulateOnce(t *testing.T) {
	const jobs = 4
	s := New(Config{
		Workers: jobs,
		Backlog: 2 * jobs,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	// Occupy every worker so the sweeps stay queued until each stream
	// has subscribed, then start together.
	release := make(chan struct{})
	start := sync.OnceFunc(func() { close(release) })
	defer start() // a failed check must not leave the sweeps queued
	for i := 0; i < jobs; i++ {
		if _, err := s.queue.Submit(func(ctx context.Context) (any, error) {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return nil, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	var before MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &before)

	ids := make([]string, jobs)
	for i := range ids {
		resp, body := postJSON(t, ts.URL+"/v1/dse", table3Body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("enqueue %d: status %d: %s", i, resp.StatusCode, body)
		}
		var enq EnqueueResponse
		if err := json.Unmarshal(body, &enq); err != nil {
			t.Fatal(err)
		}
		ids[i] = enq.JobID
	}

	frames := make([][]StreamFrame, jobs)
	errs := make([]error, jobs)
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream")
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			dec := json.NewDecoder(resp.Body)
			for {
				var f StreamFrame
				if err := dec.Decode(&f); err == io.EOF {
					return
				} else if err != nil {
					errs[i] = err
					return
				}
				frames[i] = append(frames[i], f)
			}
		}(i, id)
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, id := range ids {
		hub := s.stream(id)
		for {
			hub.mu.Lock()
			subscribed := len(hub.subs) > 0
			hub.mu.Unlock()
			if subscribed {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("stream of %s never subscribed", id)
			}
			time.Sleep(time.Millisecond)
		}
	}
	start()
	wg.Wait()

	var top []DesignSummary
	for i, id := range ids {
		if errs[i] != nil {
			t.Fatalf("stream of %s: %v", id, errs[i])
		}
		st := pollJob(t, ts.URL, id)
		if st.State != "succeeded" {
			t.Fatalf("job %s: %s (%s)", id, st.State, st.Error)
		}
		res := decodeDSEResult(t, st)
		if res.Designs != 512 || len(res.Top) != 3 {
			t.Fatalf("job %s: result covers %d designs with %d top, want 512 and 3", id, res.Designs, len(res.Top))
		}
		if i == 0 {
			top = res.Top
		} else if !reflect.DeepEqual(res.Top, top) {
			t.Errorf("job %s top = %+v, want %+v", id, res.Top, top)
		}

		points := 0
		for _, f := range frames[i] {
			if f.Type == "point" {
				points++
			}
		}
		last := frames[i][len(frames[i])-1]
		if points == 0 {
			t.Errorf("job %s streamed no point frames", id)
		}
		if last.Type != "summary" || last.Status == nil || last.Status.ID != id || last.Status.State != "succeeded" {
			t.Errorf("job %s: last frame %+v, want its own succeeded summary", id, last)
		}
	}

	var after MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &after)
	if d := after.Cache.Misses - before.Cache.Misses; d != 512 {
		t.Errorf("cache misses rose by %d across %d identical sweeps, want 512 (one simulation per design)", d, jobs)
	}
}

// journalServer builds a server journaling under dir.
func journalServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{
		Workers:  2,
		Backlog:  8,
		CacheDir: dir,
		Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	ts := httptest.NewServer(s.Handler())
	return s, ts
}

func getRaw(t *testing.T, url string, header http.Header) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, vs := range header {
		req.Header[k] = vs
	}
	resp, err := http.DefaultClient.Do(req)
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

// TestJournalRestartRoundTrip finishes a job, restarts the server on
// the same cache dir, and asserts the poll survives: byte-identical
// body, matching strong ETag, and an empty 304 on If-None-Match. The
// finished job's stream also still serves its summary frame.
func TestJournalRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := journalServer(t, dir)

	_, body := postJSON(t, ts1.URL+"/v1/dse", smallDSEBody)
	var enq EnqueueResponse
	if err := json.Unmarshal(body, &enq); err != nil {
		t.Fatal(err)
	}
	st := pollJob(t, ts1.URL, enq.JobID)
	if st.State != "succeeded" {
		t.Fatalf("job: %s (%s)", st.State, st.Error)
	}
	liveResp, liveBody := getRaw(t, ts1.URL+"/v1/jobs/"+enq.JobID, nil)
	liveETag := liveResp.Header.Get("ETag")
	if liveETag == "" {
		t.Fatal("terminal poll carries no ETag")
	}
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := journalServer(t, dir)
	defer func() { ts2.Close(); s2.Close() }()

	resp, replayBody := getRaw(t, ts2.URL+"/v1/jobs/"+enq.JobID, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("poll after restart: %d", resp.StatusCode)
	}
	if !bytes.Equal(replayBody, liveBody) {
		t.Fatalf("restart changed the poll body:\nlive:   %s\nreplay: %s", liveBody, replayBody)
	}
	if tag := resp.Header.Get("ETag"); tag != liveETag {
		t.Fatalf("restart changed the ETag: %q vs %q", tag, liveETag)
	}

	resp304, body304 := getRaw(t, ts2.URL+"/v1/jobs/"+enq.JobID,
		http.Header{"If-None-Match": {liveETag}})
	if resp304.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional poll: %d, want 304", resp304.StatusCode)
	}
	if len(body304) != 0 {
		t.Fatalf("304 carried a body: %s", body304)
	}

	// The restored job streams its summary immediately.
	sresp, err := http.Get(ts2.URL + "/v1/jobs/" + enq.JobID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	frames := readFrames(t, sresp.Body)
	if len(frames) != 1 || frames[0].Type != "summary" || frames[0].Status.State != "succeeded" {
		t.Fatalf("restored stream frames = %+v", frames)
	}

	// A fresh submission must not collide with the replayed ID.
	_, body = postJSON(t, ts2.URL+"/v1/dse", smallDSEBody)
	var enq2 EnqueueResponse
	if err := json.Unmarshal(body, &enq2); err != nil {
		t.Fatal(err)
	}
	if enq2.JobID == enq.JobID {
		t.Fatalf("restarted server reissued job ID %q", enq.JobID)
	}
}

// TestJournalResumesUnfinishedJob shuts a server down mid-sweep and
// asserts the restart resubmits the journalled job under its original
// ID and runs it to completion.
func TestJournalResumesUnfinishedJob(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := journalServer(t, dir)
	// Throttled so the shutdown lands mid-sweep, never after it.
	s1.Explorer().Sim.Backend = throttledBackend{engine: perf.Default(), delay: 20 * time.Microsecond}

	resp, body := postJSON(t, ts1.URL+"/v1/dse", table3Body)
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
		t.Fatalf("resumed job: %s (%s)", st.State, st.Error)
	}
	res := decodeDSEResult(t, st)
	if res.Designs != 512 {
		t.Fatalf("resumed sweep covered %d designs, want 512", res.Designs)
	}
}

// TestRateLimit429 exhausts a 2-token bucket and asserts the third
// submission bounces with 429 + Retry-After while polling stays open.
func TestRateLimit429(t *testing.T) {
	s := New(Config{
		Workers:   2,
		Backlog:   8,
		RateLimit: 0.001, // no meaningful refill within the test
		RateBurst: 2,
		Logger:    slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	var last EnqueueResponse
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/dse", smallDSEBody)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submission %d inside burst: %d (%s)", i, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &last); err != nil {
			t.Fatal(err)
		}
	}
	resp, body := postJSON(t, ts.URL+"/v1/dse", smallDSEBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit submission: %d (%s), want 429", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
		t.Fatalf("429 error envelope missing: %s", body)
	}
	// The search endpoint shares the same bucket.
	if resp, _ := postJSON(t, ts.URL+"/v1/search", `{"budget":16}`); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("search over limit: %d, want 429", resp.StatusCode)
	}
	// Reads are unmetered.
	if st := pollJob(t, ts.URL, last.JobID); st.State != "succeeded" {
		t.Fatalf("burst job: %s (%s)", st.State, st.Error)
	}
}

// TestRateLimiterRefill drives the bucket with a synthetic clock:
// tokens accrue at the configured rate, cap at the burst, and the
// retry hint converges on the next token's arrival.
func TestRateLimiterRefill(t *testing.T) {
	rl := newRateLimiter(2, 2) // 2 tokens/s, burst 2
	now := time.Unix(1000, 0)
	for i := 0; i < 2; i++ {
		if ok, _ := rl.allow("c", now); !ok {
			t.Fatalf("burst token %d denied", i)
		}
	}
	ok, retry := rl.allow("c", now)
	if ok {
		t.Fatal("empty bucket granted a token")
	}
	if retry <= 0 || retry > 500*time.Millisecond {
		t.Fatalf("retry hint %v, want (0, 500ms]", retry)
	}
	if ok, _ := rl.allow("c", now.Add(time.Second)); !ok {
		t.Fatal("token not refilled after 1s at 2/s")
	}
	// Refill caps at the burst: a long-idle client gets 2, not 20.
	now = now.Add(time.Minute)
	granted := 0
	for i := 0; i < 5; i++ {
		if ok, _ := rl.allow("c", now); ok {
			granted++
		}
	}
	if granted != 2 {
		t.Fatalf("idle client granted %d tokens, want burst of 2", granted)
	}
	// Distinct clients own distinct buckets.
	if ok, _ := rl.allow("other", now); !ok {
		t.Fatal("fresh client denied")
	}
}
