package server

import (
	"errors"
	"io"
	"net/http"
	"sync"

	"repro/internal/harness"
	"repro/internal/trace"
)

// maxTraceBytes bounds one uploaded trace's encoded size. The binary
// format is varint-delta compressed, so 8 MiB of encoding is tens of
// millions of references — far beyond what one synchronous simulation
// budget can drain.
const maxTraceBytes = 8 << 20

// maxTraceStoreBytes bounds the store's total resident encoding; past
// it the least-recently-used traces are evicted. Eviction only drops
// the store's reference — jobs hold their own *trace.File pointer, so
// a running or queued job is never broken by eviction (the id just
// stops resolving for new submissions).
const maxTraceStoreBytes = 64 << 20

// traceStore is the content-addressed upload registry: a trace's id is
// the hex SHA-256 of its canonical serialization (trace.File.Hash), so
// re-uploading identical bytes is idempotent and two different streams
// can never share an id. Recency is a simple counter-stamped LRU —
// uploads are rare and small next to simulations.
type traceStore struct {
	mu      sync.Mutex
	entries map[string]*traceEntry // guarded by mu
	clock   uint64                 // guarded by mu
	total   int64                  // guarded by mu; sum of entry sizes
}

// traceEntry holds an upload as the runnable workload every job on its
// id shares, built once so the content hash is never recomputed per
// job.
type traceEntry struct {
	w    *harness.TraceWorkload
	size int64
	used uint64 // last-use stamp, from traceStore.clock
}

func newTraceStore() *traceStore {
	return &traceStore{entries: make(map[string]*traceEntry)}
}

// errTraceTooLarge reports an upload beyond maxTraceBytes.
var errTraceTooLarge = errors.New("server: trace exceeds the size limit")

// add decodes and registers an uploaded trace, returning its
// content-address id. Identical re-uploads return the same id without
// growing the store.
func (ts *traceStore) add(data []byte) (string, *trace.File, error) {
	if len(data) > maxTraceBytes {
		return "", nil, errTraceTooLarge
	}
	f, err := trace.DecodeBytes(data)
	if err != nil {
		return "", nil, err
	}
	w := harness.NewTraceWorkload("", f)
	id := w.Hash()
	w.Name = "trace:" + shortTraceID(id)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.clock++
	if e, ok := ts.entries[id]; ok {
		e.used = ts.clock
		return id, e.w.File, nil
	}
	ts.entries[id] = &traceEntry{w: w, size: int64(len(data)), used: ts.clock}
	ts.total += int64(len(data))
	for ts.total > maxTraceStoreBytes && len(ts.entries) > 1 {
		ts.evictOldestLocked(id)
	}
	return id, f, nil
}

// evictOldestLocked drops the least-recently-used entry other than
// keep. Caller holds ts.mu.
func (ts *traceStore) evictOldestLocked(keep string) {
	var victim string
	var oldest uint64
	for id, e := range ts.entries {
		if id == keep {
			continue
		}
		if victim == "" || e.used < oldest {
			victim, oldest = id, e.used
		}
	}
	if victim == "" {
		return
	}
	ts.total -= ts.entries[victim].size
	delete(ts.entries, victim)
}

// get resolves an id to its stored workload, bumping its recency.
// Returns nil when unknown (never uploaded, or evicted).
func (ts *traceStore) get(id string) *harness.TraceWorkload {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	e, ok := ts.entries[id]
	if !ok {
		return nil
	}
	ts.clock++
	e.used = ts.clock
	return e.w
}

// bytes reports the store's resident encoded size (for metrics).
func (ts *traceStore) bytes() int64 {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.total
}

// TraceInfo is the body of a successful trace upload (201) and of
// GET /v1/traces/{id}: the trace's content address and shape.
type TraceInfo struct {
	// ID is the trace's content address: the hex SHA-256 of its
	// canonical binary serialization. Pass it as a job's trace_id.
	ID string `json:"id"`
	// CPUs is the number of per-CPU reference streams.
	CPUs int `json:"cpus"`
	// Refs is the total reference count across all streams.
	Refs uint64 `json:"refs"`
	// Bytes is the encoded size.
	Bytes int `json:"bytes"`
}

func traceInfoOf(id string, f *trace.File) TraceInfo {
	return TraceInfo{ID: id, CPUs: f.NumCPUs(), Refs: f.TotalRefs(), Bytes: f.EncodedSize()}
}

// handleUploadTrace is POST /v1/traces: the body is the raw binary
// trace format (see DESIGN.md §15; produce it with cmd/traceconv).
// Responds 201 with the trace's content-address id; re-uploading the
// same bytes is idempotent and returns the same id.
func (s *Server) handleUploadTrace(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxTraceBytes+1))
	if err != nil || len(data) > maxTraceBytes {
		writeError(w, http.StatusRequestEntityTooLarge, ErrorInfo{Code: CodeTraceTooLarge,
			Message: "trace exceeds the size limit"})
		return
	}
	id, f, err := s.traces.add(data)
	if err != nil {
		if errors.Is(err, errTraceTooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, ErrorInfo{Code: CodeTraceTooLarge,
				Message: "trace exceeds the size limit"})
			return
		}
		writeError(w, http.StatusBadRequest, ErrorInfo{Code: CodeBadTrace, Message: err.Error()})
		return
	}
	s.logf("trace %s uploaded: %d cpus, %d refs, %d bytes", shortTraceID(id), f.NumCPUs(), f.TotalRefs(), len(data))
	w.Header().Set("Location", "/v1/traces/"+id)
	writeJSON(w, http.StatusCreated, traceInfoOf(id, f))
}

// handleGetTrace is GET /v1/traces/{id}: metadata for an uploaded
// trace (404 when the id is unknown or was evicted).
func (s *Server) handleGetTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tw := s.traces.get(id)
	if tw == nil {
		writeError(w, http.StatusNotFound, ErrorInfo{Code: CodeNotFound,
			Message: "no such trace: " + id})
		return
	}
	writeJSON(w, http.StatusOK, traceInfoOf(id, tw.File))
}

// shortTraceID abbreviates a content-address id for labels and logs.
func shortTraceID(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}
