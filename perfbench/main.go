// Command perfbench is the repository's end-to-end benchmark: it runs
// cdpcd in-process on a loopback listener, drives it with a seeded
// closed loop of two clients issuing synchronous POST /v1/simulate
// requests, checks every reply against recorded counters, and prints
// one JSON line of metrics. With -trace 1 it instead runs the traced
// pass and prints the per-layer table. See README.md.
//
//	go run . -workload full-sweep -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// setups is how many times a run sets up; setup_s is their median.
const setups = 3

// rssJobs is the reply count at which peak_rss_mb is read. cdpcd's
// memo keeps every result, so the process grows with the jobs it has
// served; reading the high-water mark after a fixed number of replies
// keeps a fast host's extra jobs out of the figure.
const rssJobs = 200

// minBeyond is the fewest samples a reported percentile must have
// beyond it; a run that cannot meet it is invalid and reports nothing.
const minBeyond = 10

type options struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	exp      *expectations
	// spans is where the traced run writes its spans ("" skips).
	spans string
	// validate rejects runs with too few samples for their percentiles.
	validate bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// failures holds the first few failure descriptions.
	failures []string
}

func main() {
	var (
		workload = flag.String("workload", "full-sweep", "full-sweep, service-mix or trace-replay")
		seed     = flag.Int64("seed", 1, "input generation seed")
		seconds  = flag.Float64("seconds", 20, "measurement window in seconds")
		traced   = flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
		expPath  = flag.String("expected", "perfbench/expected.tsv", "recorded counters of every reachable spec")
		rec      = flag.String("record", "", "simulate every reachable spec through the library and write the table to this path")
	)
	flag.Parse()
	if *rec != "" {
		if err := record(*rec); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	exp, err := loadExpectations(*expPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("host: cpu=%q nproc=%d gomaxprocs=%d go=%s\n", cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	rep, err := measure(options{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		traced:   *traced == 1,
		exp:      exp,
		spans:    fmt.Sprintf(".bench_build/spans-%s-%d.json", *workload, *seed),
		validate: true,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, f := range rep.failures {
		fmt.Println("failure:", f)
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// setup pays the one-off work a cdpcd process really pays: server
// construction, input generation, trace encode and upload, and one
// warm-up job per workload family.
func setup(o options, tr *tracer) (*instance, sequence, time.Duration, error) {
	t := time.Now()
	sp := tr.begin("setup", -1, -1)
	defer tr.end(sp)
	in, err := start()
	if err != nil {
		return nil, nil, 0, err
	}
	seq, err := newSequence(o.workload, o.seed)
	if err != nil {
		in.stop()
		return nil, nil, 0, err
	}
	if o.workload == "trace-replay" {
		s := tr.begin("trace.upload_pool", sp, -1)
		err := in.uploadTraces(o.exp, tracePool)
		tr.end(s)
		if err != nil {
			in.stop()
			return nil, nil, 0, err
		}
	}
	warm := warmupJobs(o.workload)
	for _, jb := range warm {
		s := tr.begin("warmup_job", sp, -1)
		out := in.do(jb, o.exp)
		tr.end(s)
		if out.err != "" {
			in.stop()
			return nil, nil, 0, fmt.Errorf("warm-up job %s: %s", jb.Key, out.err)
		}
	}
	if o.workload != "service-mix" {
		probe := warm[0]
		probe.Kind = "probe"
		seq = &probed{seq: seq, probe: probe}
	}
	return in, seq, time.Since(t), nil
}

// measure runs one benchmark run and assembles its report.
func measure(o options) (*report, error) {
	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	var in *instance
	var seq sequence
	var setupS []float64
	for i := 0; i < setups; i++ {
		if in != nil {
			if err := in.stop(); err != nil {
				return nil, err
			}
		}
		var d time.Duration
		var err error
		if in, seq, d, err = setup(o, tr); err != nil {
			return nil, err
		}
		setupS = append(setupS, d.Seconds())
	}
	defer in.stop()

	var replies atomic.Int64
	var rss float64
	var rssErr error
	onDone := func(x outcome) {
		if tr != nil {
			tr.job(x)
		}
		if x.job.Kind != "probe" && replies.Add(1) == rssJobs {
			rss, rssErr = peakRSSMB()
		}
	}
	outs, wall := in.closedLoop(seq, o.exp, o.window, onDone)
	if replies.Load() < rssJobs {
		rss, rssErr = peakRSSMB()
	}
	if rssErr != nil {
		return nil, rssErr
	}
	completed := 0
	for _, x := range outs {
		if x.err == "" && x.job.Kind != "probe" {
			completed++
		}
	}
	// The window's admission and memo counters.
	window := map[string]metric{}
	if tr != nil {
		for _, c := range []struct{ name, exported, unit string }{
			{"server.rejected", "cdpcd_jobs_rejected_total", "count"},
			{"harness.memo_hit_ratio", "cdpcd_scheduler_cache_hit_rate", "ratio"},
		} {
			v, err := in.metric(c.exported)
			if err != nil {
				return nil, err
			}
			window[c.name] = metric{v, c.unit}
		}
	}

	rep := &report{Metrics: map[string]metric{}}
	var fresh, hits, overhead []float64
	var minst float64
	kinds := map[string]int{}
	coalesced := 0
	for _, x := range outs {
		rep.Attempted++
		if x.err != "" {
			rep.Failed++
			if len(rep.failures) < 5 {
				rep.failures = append(rep.failures, x.err)
			}
			continue
		}
		kinds[x.job.Kind]++
		switch {
		case (x.job.Kind == "repeat" || x.job.Kind == "probe") && x.res.Cached:
			hits = append(hits, ms(x.latency))
		case x.job.Kind == "repeat" || x.job.Kind == "probe":
			coalesced++
		default:
			fresh = append(fresh, ms(x.latency))
			overhead = append(overhead, ms(x.latency)-x.res.SimMS)
			if x.job.Trace >= 0 {
				minst += float64(in.traces[x.job.Trace].TotalRefs()) / 1e6
			} else {
				minst += float64(o.exp.counters[x.job.Key].Instructions) / 1e6
			}
		}
	}
	rep.Correct = rep.Failed == 0
	fmt.Printf("samples: fresh=%d hits=%d coalesced=%d kinds=%v window=%.3fs\n", len(fresh), len(hits), coalesced, kinds, wall.Seconds())
	if o.validate && rep.Correct {
		if len(fresh) < 10*minBeyond || len(hits) < 2*minBeyond {
			return nil, fmt.Errorf("invalid run: %d fresh jobs (need %d for p90) and %d memo hits (need %d for p50)",
				len(fresh), 10*minBeyond, len(hits), 2*minBeyond)
		}
	}
	jobsPerS := float64(completed) / wall.Seconds()
	if tr == nil {
		put := func(name string, v float64, unit string) { rep.Metrics[name] = metric{v, unit} }
		put("setup_s", median(setupS), "s")
		put("jobs_per_s", jobsPerS, "1/s")
		put("sim_minst_per_s", minst/wall.Seconds(), "Minst/s")
		put("job_p50_ms", quantile(fresh, 0.5), "ms")
		put("job_p90_ms", quantile(fresh, 0.9), "ms")
		put("hit_p50_ms", quantile(hits, 0.5), "ms")
		put("peak_rss_mb", rss, "MB")
		fmt.Printf("error_rate: %d/%d\n", rep.Failed, rep.Attempted)
		return rep, nil
	}
	lm, err := layers(o, in, outs, tr)
	if err != nil {
		return nil, err
	}
	for name, m := range window {
		lm[name] = m
	}
	lm["bench.traced_jobs_per_s"] = metric{jobsPerS, "1/s"}
	lm["server.overhead_p50_ms"] = metric{quantile(overhead, 0.5), "ms"}
	rep.Metrics = lm
	tr.summary()
	if o.spans != "" {
		if err := tr.write(o.spans); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// quantile is the nearest-rank q-quantile; NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
