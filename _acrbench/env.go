package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// env names the machine and the code a run measured.
type env struct {
	CPU        string
	NProc      int
	GOMAXPROCS int
	Go         string
	Commit     string
	Tree       string
	Seed       uint64
}

// readEnv fills the environment block; commit is what run.sh found in
// git (empty outside a git checkout).
func readEnv(seed uint64, commit string) env {
	if commit == "" {
		commit = "unknown"
	}
	return env{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     commit,
		Tree:       treeHash("."),
		Seed:       seed,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// treeHash fingerprints the measured program's sources (go.mod and every
// .go file under internal/ and cmd/), so runs from a checkout without
// git history still say which code they measured.
func treeHash(root string) string {
	h := sha256.New()
	var files []string
	for _, dir := range []string{"internal", "cmd"} {
		filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error { //nolint:errcheck // a missing tree hashes as empty
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return nil
		})
	}
	sort.Strings(files)
	for _, p := range append([]string{filepath.Join(root, "go.mod")}, files...) {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p) //nolint:errcheck // hash writes never fail
		io.Copy(h, f)        //nolint:errcheck // a read error only changes the fingerprint
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// controlSink keeps the control loop's result live.
var controlSink float64

// hostControl times a fixed, repo-independent loop (SHA-256 over 8 MiB
// plus a square-root sum) and returns the median of seven runs in
// milliseconds: the calibration that lets runs on two machines compare as
// ratios.
func hostControl() float64 {
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	var ms []float64
	for r := 0; r < 7; r++ {
		start := time.Now()
		h := sha256.New()
		for i := 0; i < 8; i++ {
			h.Write(buf) //nolint:errcheck // hash writes never fail
		}
		x := float64(h.Sum(nil)[0])
		for i := 1; i <= 2_000_000; i++ {
			x += math.Sqrt(float64(i))
		}
		controlSink = x
		ms = append(ms, float64(time.Since(start))/1e6)
	}
	return median(ms)
}

// rtStats are the runtime counters the per-layer runtime.* metrics use.
type rtStats struct {
	allocBytes    uint64
	gcCPU, allCPU float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtStats {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtStats{allocBytes: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), allCPU: s[2].Value.Float64()}
}

// heapSampler tracks peak in-use heap (runtime.MemStats.HeapInuse:
// object bytes plus unused bytes of in-use spans) every 2 ms.
type heapSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func heapInuseNow() uint64 {
	return heapInuse([]metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}})
}

func heapInuse(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
	h.peak = heapInuse(s)
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.done:
				return
			case <-t.C:
				if v := heapInuse(s); v > h.peak {
					h.peak = v
				}
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak.
func (h *heapSampler) stop() uint64 {
	close(h.done)
	h.wg.Wait()
	if v := heapInuseNow(); v > h.peak {
		h.peak = v
	}
	return h.peak
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; +Inf entries (failed ops) sort last.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(s[hi], 1) {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
