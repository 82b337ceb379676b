package server

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// journal.go persists the job queue across restarts. Every accepted DSE
// or search job writes its spec (the validated request, verbatim JSON)
// into a store.Files store under <cache-dir>/jobs; when the job reaches a
// terminal state the record gains the status snapshot, result included.
// On startup the journal is replayed: finished jobs stay poll-able (and
// ETag-cacheable) from their persisted records, unfinished ones are
// resubmitted under their original IDs so poll URLs handed out before
// the restart keep working. Journaling exists only when a cache
// directory is configured — without one the server never touches disk.

// jobKindDSE and jobKindSearch tag journal records with the request
// type parseJob rebuilds their job from on replay.
const (
	jobKindDSE    = "dse"
	jobKindSearch = "search"
)

// storedStatus mirrors JobStatus field-for-field (same JSON tags) with
// the result kept as raw JSON: the terminal snapshot's DSEResult or
// SearchResult is marshalled once, at journaling time, and replayed
// verbatim — so a poll served from the journal after a restart is
// byte-identical to one served live, struct field order and all.
type storedStatus struct {
	ID         string          `json:"id"`
	State      string          `json:"state"`
	CreatedAt  string          `json:"created_at"`
	StartedAt  string          `json:"started_at,omitempty"`
	FinishedAt string          `json:"finished_at,omitempty"`
	DurationMS float64         `json:"duration_ms,omitempty"`
	Error      string          `json:"error,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
}

func storedFromStatus(st JobStatus) (storedStatus, error) {
	ss := storedStatus{
		ID:         st.ID,
		State:      st.State,
		CreatedAt:  st.CreatedAt,
		StartedAt:  st.StartedAt,
		FinishedAt: st.FinishedAt,
		DurationMS: st.DurationMS,
		Error:      st.Error,
	}
	if st.Result != nil {
		raw, err := json.Marshal(st.Result)
		if err != nil {
			return storedStatus{}, fmt.Errorf("marshal result: %w", err)
		}
		ss.Result = raw
	}
	return ss, nil
}

// status converts back to the wire type. The raw result slots straight
// into JobStatus.Result: json re-indents it without reordering keys, so
// writeJSON emits the original bytes.
func (ss storedStatus) status() JobStatus {
	st := JobStatus{
		ID:         ss.ID,
		State:      ss.State,
		CreatedAt:  ss.CreatedAt,
		StartedAt:  ss.StartedAt,
		FinishedAt: ss.FinishedAt,
		DurationMS: ss.DurationMS,
		Error:      ss.Error,
	}
	if len(ss.Result) > 0 {
		st.Result = ss.Result
	}
	return st
}

// jobRecord is one journalled job: the spec that can rebuild it, plus
// the terminal status once there is one.
type jobRecord struct {
	ID   string          `json:"id"`
	Kind string          `json:"kind"`
	Spec json.RawMessage `json:"spec"`
	// Status is nil while the job is unfinished; replay resubmits
	// exactly those records.
	Status *storedStatus `json:"status,omitempty"`
}

// jobRecordCodec stores journal records as JSON inside the store.Files
// container: the journal writes a few records per job lifetime, so
// self-describing JSON (debuggable with cat) beats a binary layout.
type jobRecordCodec struct{}

func (jobRecordCodec) Version() string { return "jobrec-v1" }

func (jobRecordCodec) Encode(dst []byte, rec jobRecord) ([]byte, error) {
	b, err := json.Marshal(rec)
	if err != nil {
		return dst, err
	}
	return append(dst, b...), nil
}

func (jobRecordCodec) Decode(data []byte) (jobRecord, error) {
	var rec jobRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return jobRecord{}, err
	}
	return rec, nil
}

// journal is the durable job log over a store.Files tier (one ".acrj"
// file per job, temp+rename atomic, FNV checksummed). It keeps no copy
// of its records in memory: each method reads the record it needs back
// from its file. All methods are safe for concurrent use.
type journal struct {
	files *store.Files[jobRecord]
	rec   *obs.Recorder
	log   *slog.Logger
	// mu makes each record's read-modify-write atomic, so a job's spec
	// and terminal writes both land whichever runs first.
	mu sync.Mutex
}

// openJournal opens (or creates) the journal under dir.
func openJournal(dir string, rec *obs.Recorder, log *slog.Logger) (*journal, error) {
	files, err := store.NewFiles(filepath.Join(dir, "jobs"), jobRecordCodec{})
	if err != nil {
		return nil, err
	}
	return &journal{files: files, rec: rec, log: log}, nil
}

// appendSpec journals an accepted job's spec. A record already holding a
// terminal status keeps it: when a short job finishes before its spec
// write lands, the setTerminal that raced ahead must not be lost.
func (jl *journal) appendSpec(id, kind string, spec json.RawMessage) {
	jl.update(id, func(r *jobRecord) { r.Kind, r.Spec = kind, spec })
}

// setTerminal journals a job's terminal status snapshot. Jobs the
// journal has no spec for (classify-style work never journals one) get
// a spec-less record, which replay treats as finished history only.
func (jl *journal) setTerminal(st JobStatus) {
	ss, err := storedFromStatus(st)
	if err != nil {
		jl.log.Warn("job journal: status not persisted", "job", st.ID, "err", err)
		return
	}
	jl.update(st.ID, func(r *jobRecord) { r.Status = &ss })
}

// update reads id's record back (a fresh one when it has none), applies
// fn and writes the record, best-effort: a write failure degrades
// durability, not the live request.
func (jl *journal) update(id string, fn func(*jobRecord)) {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	start := time.Now()
	r, _ := jl.files.Get(id)
	r.ID = id
	fn(&r)
	if err := jl.files.Put(id, r); err != nil {
		jl.log.Warn("job journal: write failed", "job", id, "err", err)
	}
	jl.rec.Observe("journal.append", time.Since(start))
}

// terminal returns the persisted terminal status of a journalled job.
func (jl *journal) terminal(id string) (JobStatus, bool) {
	r, ok := jl.files.Get(id)
	if !ok || r.Status == nil {
		return JobStatus{}, false
	}
	return r.Status.status(), true
}

// records reads every journalled job back sorted by ID, so replay
// resubmits unfinished jobs in their original submission order (IDs are
// zero-padded sequence numbers). Records that fail to decode were
// deleted by the Files tier; replay proceeds without them.
func (jl *journal) records() ([]jobRecord, error) {
	names, err := jl.files.List()
	if err != nil {
		return nil, err
	}
	out := make([]jobRecord, 0, len(names))
	for _, name := range names {
		if r, ok := jl.files.Get(name); ok {
			out = append(out, r)
		}
	}
	return out, nil
}
