package server

import (
	"math/rand/v2"
	"strconv"
	"sync"
	"testing"

	"repro/internal/dse"
)

// TestHubWindowFramesWellFormed delivers the windows of a 256-design
// sweep to one hub from four goroutines at once, with a subscriber whose
// buffer holds every frame. Every design that finished gets exactly one
// point frame, seq rises strictly, a front frame follows every 32nd
// point frame, and every front is non-dominated and admissible only.
func TestHubWindowFramesWellFormed(t *testing.T) {
	const n, width = 256, 32
	rng := rand.New(rand.NewPCG(7, 11))
	points := make([]dse.Point, n)
	ptrs := make([]*dse.Point, n)
	done := make([]bool, n)
	for i := range points {
		p := &points[i]
		p.Config.Name = "design-" + strconv.Itoa(i)
		p.Result.TTFTSeconds = float64(rng.IntN(40)) / 1e3 // ties on x
		p.AreaMM2 = float64(100 + rng.IntN(700))
		p.FitsReticle = rng.IntN(4) != 0
		ptrs[i], done[i] = p, rng.IntN(16) != 0 // some designs failed
	}
	hub := newStreamHub(dse.MetricTTFT, dse.MetricArea, func(p dse.Point) bool { return p.FitsReticle })
	sub, catchup := hub.subscribe()
	if len(catchup) != 0 {
		t.Fatalf("a fresh hub sent %d catch-up frames", len(catchup))
	}
	windows := make(chan int)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lo := range windows {
				hub.window(dse.Window{Lo: lo, Points: ptrs[lo : lo+width], Done: done[lo : lo+width]})
			}
		}()
	}
	for lo := 0; lo < n; lo += width {
		windows <- lo
	}
	close(windows)
	wg.Wait()
	hub.finish(JobStatus{State: "succeeded"})

	var frames []StreamFrame
	for f := range sub.ch {
		frames = append(frames, f)
	}
	frames = append(frames, hub.finalFrames()...)
	if sub.dropped != 0 {
		t.Fatalf("%d frames dropped with room for all", sub.dropped)
	}
	byName := make(map[string]*dse.Point, n)
	finished := 0
	for i, p := range ptrs {
		if done[i] {
			byName[p.Config.Name] = p
			finished++
		}
	}
	seen := make(map[string]bool, n)
	var seq uint64
	pointFrames, frontDue := 0, false
	for _, f := range frames {
		if f.Seq <= seq {
			t.Fatalf("seq %d after %d", f.Seq, seq)
		}
		seq = f.Seq
		if frontDue && f.Type != "front" {
			t.Fatalf("frame %d is a %s frame; a front frame was due after point frame %d", f.Seq, f.Type, pointFrames)
		}
		frontDue = false
		switch f.Type {
		case "point":
			p, ok := byName[f.Point.Config]
			if !ok || seen[f.Point.Config] {
				t.Fatalf("point frame for %q: finished %v, seen before %v", f.Point.Config, ok, seen[f.Point.Config])
			}
			seen[f.Point.Config] = true
			if f.Point.Admissible != p.FitsReticle || f.Point.X != dse.MetricTTFT(*p) || f.Point.Y != p.AreaMM2 {
				t.Fatalf("point frame %+v does not match its design", *f.Point)
			}
			pointFrames++
			frontDue = pointFrames%frontEvery == 0
		case "front":
			for i, a := range f.Front {
				if !a.Admissible {
					t.Fatalf("front frame %d holds inadmissible %s", f.Seq, a.Config)
				}
				for j, b := range f.Front {
					if i != j && a.X <= b.X && a.Y <= b.Y {
						t.Fatalf("front frame %d: %s dominates %s", f.Seq, a.Config, b.Config)
					}
				}
			}
		case "summary":
		default:
			t.Fatalf("unknown frame type %q", f.Type)
		}
	}
	if pointFrames != finished {
		t.Fatalf("%d point frames for %d finished designs", pointFrames, finished)
	}
	if last := frames[len(frames)-1]; last.Type != "summary" {
		t.Fatalf("last frame is a %s frame", last.Type)
	}
}
