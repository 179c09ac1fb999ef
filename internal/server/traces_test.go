package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"repro/internal/trace"
)

// testTraceBytes encodes a small 2-CPU trace: each CPU walks its own
// few pages with some revisits, enough for a sub-second simulation.
func testTraceBytes(t *testing.T) []byte {
	t.Helper()
	enc, err := trace.NewEncoder(2)
	if err != nil {
		t.Fatal(err)
	}
	for cpu := 0; cpu < 2; cpu++ {
		base := uint64(cpu) << 20
		for i := 0; i < 2000; i++ {
			r := trace.Ref{Kind: trace.Read, VAddr: base + uint64(i%7)*4096 + uint64(i)%512*8, Size: 8}
			if i%5 == 0 {
				r.Kind = trace.Write
			}
			if err := enc.Add(cpu, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	return enc.File().AppendBinary(nil)
}

// postRaw sends a raw (non-JSON) body and decodes the JSON response.
func (ts *testServer) postRaw(t *testing.T, path string, body []byte, out any) int {
	t.Helper()
	resp, err := http.Post(ts.url(path), "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp.StatusCode
}

// TestTraceUploadAndSimulate covers the whole trace-job lifecycle:
// upload (content-addressed, idempotent), metadata fetch, synchronous
// simulation, and the memo-cache hit on resubmission.
func TestTraceUploadAndSimulate(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 2, QueueCapacity: 8})
	data := testTraceBytes(t)

	var info TraceInfo
	if code := ts.postRaw(t, "/v1/traces", data, &info); code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}
	if info.CPUs != 2 || info.Refs != 4000 || info.Bytes != len(data) {
		t.Fatalf("upload metadata %+v", info)
	}
	var again TraceInfo
	if code := ts.postRaw(t, "/v1/traces", data, &again); code != http.StatusCreated || again.ID != info.ID {
		t.Fatalf("re-upload not idempotent: %d %+v", code, again)
	}

	var got TraceInfo
	if code := ts.do(t, "GET", "/v1/traces/"+info.ID, nil, &got); code != http.StatusOK || got.ID != info.ID {
		t.Fatalf("GET trace: %d %+v", code, got)
	}
	if code := ts.do(t, "GET", "/v1/traces/deadbeef", nil, nil); code != http.StatusNotFound {
		t.Fatalf("GET unknown trace: status %d", code)
	}

	var res JobResult
	if code := ts.do(t, "POST", "/v1/simulate", JobRequest{TraceID: info.ID}, &res); code != http.StatusOK {
		t.Fatalf("simulate: status %d", code)
	}
	if res.CPUs != 2 || res.Fidelity != "full" || res.Policy != "page-coloring" || res.Cached {
		t.Fatalf("trace result %+v", res)
	}
	if res.L2Misses == 0 || res.PageFaults == 0 {
		t.Fatalf("trace simulated nothing: %+v", res)
	}

	var hit JobResult
	if code := ts.do(t, "POST", "/v1/simulate", JobRequest{TraceID: info.ID}, &hit); code != http.StatusOK {
		t.Fatalf("resubmit: status %d", code)
	}
	if !hit.Cached || hit.L2Misses != res.L2Misses {
		t.Fatalf("resubmission not served from the memo cache: %+v", hit)
	}

	// A different variant is a different memo slot but the same trace.
	var ft JobResult
	if code := ts.do(t, "POST", "/v1/simulate", JobRequest{TraceID: info.ID, Variant: "first-touch"}, &ft); code != http.StatusOK {
		t.Fatalf("first-touch: status %d", code)
	}
	if ft.Cached || ft.Policy != "first-touch" {
		t.Fatalf("variant result %+v", ft)
	}
}

// TestTraceJobValidation is the rejection table for trace-job shapes.
func TestTraceJobValidation(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1, QueueCapacity: 4})
	var info TraceInfo
	if code := ts.postRaw(t, "/v1/traces", testTraceBytes(t), &info); code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}
	cases := []struct {
		name string
		req  JobRequest
		code string
	}{
		{"unknown id", JobRequest{TraceID: "0000"}, CodeUnknownTrace},
		{"with workload", JobRequest{TraceID: info.ID, Workload: "tomcatv"}, CodeInvalidRequest},
		{"with program", JobRequest{TraceID: info.ID, Program: "x"}, CodeInvalidRequest},
		{"with co-runners", JobRequest{TraceID: info.ID, CoRunners: []CoRunnerRequest{{}}}, CodeBadCoSchedule},
		{"with prefetch", JobRequest{TraceID: info.ID, Prefetch: true}, CodeInvalidRequest},
		{"sampled", JobRequest{TraceID: info.ID, Fidelity: "sampled"}, CodeBadFidelity},
		{"layout variant", JobRequest{TraceID: info.ID, Variant: "cdpc-touch"}, CodeInvalidRequest},
		{"too few cpus", JobRequest{TraceID: info.ID, CPUs: 1}, CodeInvalidRequest},
	}
	for _, tc := range cases {
		var er ErrorResponse
		code := ts.do(t, "POST", "/v1/simulate", tc.req, &er)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
			continue
		}
		if er.Error.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, er.Error.Code, tc.code)
		}
	}

	// Async submissions of a trace job must default to full fidelity,
	// not sampled.
	id := ts.submit(t, JobRequest{TraceID: info.ID, Variant: "bin-hopping"})
	st := ts.await(t, id, 30*time.Second)
	if st.State != StateDone || st.Result.Fidelity != "full" {
		t.Fatalf("async trace job: %+v", st)
	}

	if code := ts.postRaw(t, "/v1/traces", []byte("not a trace"), nil); code != http.StatusBadRequest {
		t.Errorf("garbage upload: status %d, want 400", code)
	}
	big := make([]byte, maxTraceBytes+1)
	if code := ts.postRaw(t, "/v1/traces", big, nil); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized upload: status %d, want 413", code)
	}
}

// TestTraceJobsShareStoredWorkload checks that jobs on one trace_id run
// the workload the store built at upload, rather than rebuilding (and
// re-hashing) the trace per request.
func TestTraceJobsShareStoredWorkload(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1, QueueCapacity: 4})
	var info TraceInfo
	if code := ts.postRaw(t, "/v1/traces", testTraceBytes(t), &info); code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}
	stored := ts.traces.get(info.ID)
	if stored == nil || stored.Name != "trace:"+shortTraceID(info.ID) || stored.Hash() != info.ID {
		t.Fatalf("stored workload %+v", stored)
	}
	for _, variant := range []string{"", "first-touch"} {
		var st JobStatus
		if code := ts.do(t, "POST", "/v1/jobs", JobRequest{TraceID: info.ID, Variant: variant}, &st); code != http.StatusAccepted {
			t.Fatalf("submit %q: status %d", variant, code)
		}
		j := ts.store.get(st.ID)
		if j == nil || j.spec.Trace != stored {
			t.Fatalf("job %s (variant %q) does not run the stored workload", st.ID, variant)
		}
	}
}
