package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/dse"
	"repro/internal/obs"
)

// stream.go delivers sweep results incrementally over
// GET /v1/jobs/{id}/stream: one NDJSON (or SSE) frame per evaluated
// design, a running Pareto front refreshed as it improves, and a
// terminal summary frame carrying the job's final status. The frames
// come from the job's sweep visitor, which the explorer's window workers
// call once per finished window, outside the batch evaluator's hot loop.

// StreamPoint is one design on the wire: the summary fields plus the
// point's coordinates on the running front's axes (for DSE jobs X is
// the objective metric and Y the die area; for search jobs the
// problem's two objectives; both minimised).
type StreamPoint struct {
	Config     string  `json:"config"`
	TTFTMS     float64 `json:"ttft_ms"`
	TBTMS      float64 `json:"tbt_ms"`
	AreaMM2    float64 `json:"area_mm2"`
	PD         float64 `json:"performance_density"`
	DieCostUSD float64 `json:"die_cost_usd"`
	Admissible bool    `json:"admissible"`
	X          float64 `json:"x"`
	Y          float64 `json:"y"`
}

// StreamFrame is one line of the job stream. Type is "point" (one
// evaluated design), "front" (the running Pareto front over admissible
// designs, non-dominated at every emission), or "summary" (the job's
// terminal status; always the last frame).
type StreamFrame struct {
	Type   string        `json:"type"`
	Seq    uint64        `json:"seq"`
	Point  *StreamPoint  `json:"point,omitempty"`
	Front  []StreamPoint `json:"front,omitempty"`
	Status *JobStatus    `json:"status,omitempty"`
}

const (
	// frontEvery refreshes the running front frame once per this many
	// point frames (plus once more at the end, inside the final frames).
	frontEvery = 32
	// subBuffer bounds each subscriber's frame queue; a subscriber that
	// cannot keep up loses point/front frames (never the terminal
	// summary, which is delivered from hub state after the channel
	// closes).
	subBuffer = 512
)

// streamSub is one attached stream reader.
type streamSub struct {
	ch chan StreamFrame
	// dropped counts frames lost to a full buffer (under hub.mu).
	dropped uint64
}

// streamHub fans one job's progress out to its subscribers and keeps
// the running state — point count, incremental Pareto front, terminal
// status — that late subscribers catch up from.
type streamHub struct {
	xf   func(dse.Point) float64
	yf   func(dse.Point) float64
	keep func(dse.Point) bool

	mu     sync.Mutex
	seq    uint64
	points uint64
	front  []StreamPoint
	subs   []*streamSub
	done   bool
	final  JobStatus
}

func newStreamHub(xf, yf func(dse.Point) float64, keep func(dse.Point) bool) *streamHub {
	return &streamHub{xf: xf, yf: yf, keep: keep}
}

// window is the visitor of a job that only streams (a search job's):
// it summarises the window, then publishes it.
func (h *streamHub) window(w dse.Window) {
	var buf [dse.WindowSize]StreamPoint
	h.publish(h.summarise(buf[:0], w))
}

// summarise appends the stream point of each evaluated design of w to
// dst, in input order, reading each point in place. It takes no lock, so
// every sweep worker summarises its own windows at once.
func (h *streamHub) summarise(dst []StreamPoint, w dse.Window) []StreamPoint {
	for k, p := range w.Points {
		if !w.Done[k] {
			continue
		}
		dst = append(dst, StreamPoint{
			Config:     p.Config.Name,
			TTFTMS:     p.TTFT() * 1e3,
			TBTMS:      p.TBT() * 1e3,
			AreaMM2:    p.AreaMM2,
			PD:         p.PD,
			DieCostUSD: p.DieCostUSD,
			Admissible: h.keep(*p),
			X:          h.xf(*p),
			Y:          h.yf(*p),
		})
	}
	return dst
}

// publish delivers one window's stream points under one lock: a point
// frame per point, in order, and a front frame after every
// frontEvery-th point frame. It is safe for concurrent use.
func (h *streamHub) publish(sps []StreamPoint) {
	if len(sps) == 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.done {
		return // a straggler worker after cancellation; the stream is over
	}
	// Queued point frames point into one copy of the window's points,
	// made only when someone is listening.
	var sent []StreamPoint
	if len(h.subs) > 0 {
		sent = append(sent, sps...)
	}
	for k := range sps {
		h.points++
		h.seq++
		if sent != nil {
			h.broadcastLocked(StreamFrame{Type: "point", Seq: h.seq, Point: &sent[k]})
		}
		if sps[k].Admissible {
			h.insertFrontLocked(sps[k])
		}
		if h.points%frontEvery == 0 && len(h.front) > 0 {
			h.seq++
			if len(h.subs) > 0 {
				h.broadcastLocked(StreamFrame{Type: "front", Seq: h.seq, Front: h.frontCopyLocked()})
			}
		}
	}
}

// insertFrontLocked keeps the running front non-dominated: the point is
// rejected when any member weakly dominates it (≤ on both axes, which
// also absorbs exact duplicates), otherwise it joins and evicts every
// member it weakly dominates. The front stays sorted by X.
func (h *streamHub) insertFrontLocked(sp StreamPoint) {
	for _, f := range h.front {
		if f.X <= sp.X && f.Y <= sp.Y {
			return
		}
	}
	kept := h.front[:0]
	for _, f := range h.front {
		if !(sp.X <= f.X && sp.Y <= f.Y) {
			kept = append(kept, f)
		}
	}
	// Insert in X order (the front is small; linear is fine).
	at := len(kept)
	for i, f := range kept {
		if sp.X < f.X {
			at = i
			break
		}
	}
	kept = append(kept, StreamPoint{})
	copy(kept[at+1:], kept[at:])
	kept[at] = sp
	h.front = kept
}

func (h *streamHub) frontCopyLocked() []StreamPoint {
	out := make([]StreamPoint, len(h.front))
	copy(out, h.front)
	return out
}

// broadcastLocked queues f on every subscriber without blocking: a full
// buffer drops the frame for that subscriber (the summary is never sent
// this way, so a laggard still terminates correctly).
func (h *streamHub) broadcastLocked(f StreamFrame) {
	for _, sub := range h.subs {
		select {
		case sub.ch <- f:
		default:
			sub.dropped++
		}
	}
}

// finish records the job's terminal status and closes every subscriber
// channel; readers then emit the final front and summary from hub state.
func (h *streamHub) finish(st JobStatus) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.done {
		return
	}
	h.done = true
	h.final = st
	for _, sub := range h.subs {
		close(sub.ch)
	}
	h.subs = nil
}

// subscribe attaches a reader and returns its channel plus the catch-up
// frames (the current running front, when one exists) that bring a late
// joiner up to state. On a finished hub the channel comes back closed,
// so the reader proceeds straight to the final frames.
func (h *streamHub) subscribe() (*streamSub, []StreamFrame) {
	h.mu.Lock()
	defer h.mu.Unlock()
	sub := &streamSub{ch: make(chan StreamFrame, subBuffer)}
	var catchup []StreamFrame
	if len(h.front) > 0 && !h.done {
		h.seq++
		catchup = append(catchup, StreamFrame{Type: "front", Seq: h.seq, Front: h.frontCopyLocked()})
	}
	if h.done {
		close(sub.ch)
		return sub, nil
	}
	h.subs = append(h.subs, sub)
	return sub, catchup
}

func (h *streamHub) unsubscribe(sub *streamSub) {
	h.mu.Lock()
	for i, s := range h.subs {
		if s == sub {
			h.subs = append(h.subs[:i], h.subs[i+1:]...)
			break
		}
	}
	h.mu.Unlock()
}

// finalFrames renders the closing sequence — the final front (when any
// admissible design was seen) followed by the terminal summary.
func (h *streamHub) finalFrames() []StreamFrame {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []StreamFrame
	if len(h.front) > 0 {
		h.seq++
		out = append(out, StreamFrame{Type: "front", Seq: h.seq, Front: h.frontCopyLocked()})
	}
	h.seq++
	st := h.final
	out = append(out, StreamFrame{Type: "summary", Seq: h.seq, Status: &st})
	return out
}

// ---- the HTTP surface ----

// streamWriter writes frames in the negotiated encoding, recording each
// write under the obs "stream.frame" stage; the handler flushes whenever
// it has drained its queue, so designs reach the client as they finish.
type streamWriter struct {
	w   http.ResponseWriter
	fl  http.Flusher
	enc *json.Encoder
	rec *obs.Recorder
	sse bool
	// frame holds the frame being encoded: the encoder takes a pointer
	// to it, so a write boxes nothing into an interface.
	frame StreamFrame
}

func newStreamWriter(w http.ResponseWriter, r *http.Request, rec *obs.Recorder) *streamWriter {
	sse := r.URL.Query().Get("format") == "sse" ||
		strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no") // proxies must not batch the stream
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher) // statusRecorder forwards Flush since the stream endpoint landed
	return &streamWriter{w: w, fl: fl, enc: json.NewEncoder(w), rec: rec, sse: sse}
}

func (sw *streamWriter) write(f StreamFrame) error {
	start := time.Now()
	sw.frame = f
	var err error
	if sw.sse {
		_, err = io.WriteString(sw.w, "data: ")
		if err == nil {
			err = sw.enc.Encode(&sw.frame) // Encode terminates the line
		}
		if err == nil {
			_, err = io.WriteString(sw.w, "\n") // blank line ends the event
		}
	} else {
		err = sw.enc.Encode(&sw.frame) // one JSON object per line: NDJSON
	}
	if sw.rec != nil {
		sw.rec.Observe("stream.frame", time.Since(start))
	}
	return err
}

// flush pushes the frames written so far to the client.
func (sw *streamWriter) flush() {
	if sw.fl != nil {
		sw.fl.Flush()
	}
}

// handleJobStream serves GET /v1/jobs/{id}/stream: frames from the
// job's hub until the terminal summary, NDJSON by default, SSE with
// ?format=sse or an Accept: text/event-stream header. A terminal job
// without a hub — one the queue no longer holds, or one restored from
// the journal after a restart — streams its summary alone.
func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var hub *streamHub
	if job, ok := s.queue.Get(id); ok {
		hub = job.hub
	}
	if hub == nil {
		st, ok := s.jobStatus(id)
		if !ok || !st.terminal() {
			writeError(w, http.StatusNotFound, "unknown job %q", id)
			return
		}
		sw := newStreamWriter(w, r, s.obs)
		sw.write(StreamFrame{Type: "summary", Seq: 1, Status: &st}) //nolint:errcheck // client disconnects are not actionable
		sw.flush()
		return
	}
	sw := newStreamWriter(w, r, s.obs)
	sub, catchup := hub.subscribe()
	defer hub.unsubscribe(sub)
	for _, f := range catchup {
		if sw.write(f) != nil {
			return
		}
	}
	sw.flush()
	flushed := len(catchup) > 0
	for {
		select {
		case f, ok := <-sub.ch:
			if !ok {
				for _, fin := range hub.finalFrames() {
					if sw.write(fin) != nil {
						return
					}
				}
				sw.flush()
				return
			}
			if sw.write(f) != nil {
				return
			}
			// The first frame goes out alone, so the client sees the
			// stream start at once; after it, flush once per queued
			// burst: a sweep window delivers its designs together, and
			// one flush per frame cost a write per design.
			if !flushed || len(sub.ch) == 0 {
				sw.flush()
				flushed = true
			}
		case <-r.Context().Done():
			return
		}
	}
}
