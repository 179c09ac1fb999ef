package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/trace"
)

// clients is the closed loop's width: each client waits for its reply
// before sending the next request, as experiment scripts do.
const clients = 2

// instance is one cdpcd running in this process on a loopback listener.
type instance struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan error

	traces   []*trace.File
	traceIDs []string
	// encodeNS and uploadMS time the trace pool's encoding and uploads.
	encodeNS float64
	uploadMS []float64
}

func start() (*instance, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{})
	in := &instance{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}},
		served: make(chan error, 1),
	}
	go func() { in.served <- in.hs.Serve(ln) }()
	return in, nil
}

// stop drains the job queue and the HTTP server and waits for both.
func (in *instance) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	herr := in.hs.Shutdown(ctx)
	serr := in.srv.Shutdown(ctx)
	in.client.CloseIdleConnections()
	if err := <-in.served; err != http.ErrServerClosed {
		return err
	}
	if herr != nil {
		return herr
	}
	return serr
}

// uploadTraces generates, encodes and uploads the trace pool, checking
// each content address against the recorded one.
func (in *instance) uploadTraces(exp *expectations, n int) error {
	var refs uint64
	var encode time.Duration
	for i := 0; i < n; i++ {
		f, err := genTrace(i)
		if err != nil {
			return err
		}
		t := time.Now()
		data := f.AppendBinary(nil)
		encode += time.Since(t)
		refs += f.TotalRefs()
		t = time.Now()
		resp, err := in.client.Post(in.base+"/v1/traces", "application/octet-stream", bytes.NewReader(data))
		if err != nil {
			return err
		}
		var info server.TraceInfo
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusCreated {
			return fmt.Errorf("upload trace %d: status %d, %v", i, resp.StatusCode, err)
		}
		in.uploadMS = append(in.uploadMS, ms(time.Since(t)))
		if want := exp.traceHashes[i]; info.ID != want {
			return fmt.Errorf("trace %d: content address %s, recorded %s", i, info.ID, want)
		}
		in.traces = append(in.traces, f)
		in.traceIDs = append(in.traceIDs, info.ID)
	}
	in.encodeNS = float64(encode.Nanoseconds()) / float64(refs)
	return nil
}

// outcome is one answered (or failed) request.
type outcome struct {
	job     job
	latency time.Duration
	res     *server.JobResult
	err     string // transport, status or counter failure; "" when correct
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// do sends one job synchronously and checks the reply.
func (in *instance) do(jb job, exp *expectations) outcome {
	req := jb.Req
	if jb.Trace >= 0 {
		req.TraceID = in.traceIDs[jb.Trace]
	}
	body, err := json.Marshal(req)
	if err != nil {
		return outcome{job: jb, err: err.Error()}
	}
	t := time.Now()
	resp, err := in.client.Post(in.base+"/v1/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		return outcome{job: jb, latency: time.Since(t), err: err.Error()}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o := outcome{job: jb, latency: time.Since(t)}
	if err != nil {
		o.err = err.Error()
		return o
	}
	if resp.StatusCode != http.StatusOK {
		o.err = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		return o
	}
	var res server.JobResult
	if err := json.Unmarshal(data, &res); err != nil {
		o.err = err.Error()
		return o
	}
	o.res = &res
	o.err = check(jb, &res, exp)
	return o
}

// check compares a response with the recorded counters of its spec. A
// memo-served reply is held to the same counters as the fresh run.
func check(jb job, res *server.JobResult, exp *expectations) string {
	want, ok := exp.counters[jb.Key]
	if !ok {
		return "no recorded counters for " + jb.Key
	}
	if d := want.mismatch(res); d != "" {
		return jb.Key + ": " + d
	}
	if jb.Req.Attr && (res.Attribution == nil || len(res.Attribution.PerColorMisses) == 0) {
		return jb.Key + ": attr job without attribution"
	}
	return ""
}

// closedLoop drives the instance with clients goroutines drawing jobs
// from seq until the window closes or the spec universe runs out.
// onDone sees every outcome as it arrives.
func (in *instance) closedLoop(seq sequence, exp *expectations, window time.Duration, onDone func(o outcome)) ([]outcome, time.Duration) {
	var mu sync.Mutex
	var outs []outcome
	seqNo := 0
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if time.Since(t0) >= window {
					mu.Unlock()
					return
				}
				jb, ok := seq.next()
				jb.Seq = seqNo
				seqNo++
				mu.Unlock()
				if !ok {
					return
				}
				o := in.do(jb, exp)
				onDone(o)
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(t0)
}

// metric reads one sample from GET /metrics.
func (in *instance) metric(name string) (float64, error) {
	resp, err := in.client.Get(in.base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 2 && f[0] == name {
			return strconv.ParseFloat(f[1], 64)
		}
	}
	return 0, fmt.Errorf("metric %s not exported", name)
}

// peakRSSMB reads the process's high-water resident set size.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
