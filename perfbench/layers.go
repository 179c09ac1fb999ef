package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"time"

	"repro/internal/arch"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// layerSample is how many of the run's own specs of each kind the
// layer pass re-times through the library.
const layerSample = 3

// attrPairs is how many runs with and without an attribution
// collector the obs overhead ratio takes its medians over.
const attrPairs = 3

// countJobs is how many fresh jobs the simulated counts cover; every
// valid run completes at least this many.
const countJobs = 100

// hitCalls is how many memo-served calls the handler and scheduler
// timings take their median over.
const hitCalls = 200

// Reference specs time a layer on a workload whose own traffic never
// reaches it, so every run reports the whole table.
var (
	refFull    = irCombo("tomcatv", 2, "full") // 4 CPUs, scale 16, default topology, page coloring
	refSampled = irCombo("tomcatv", 0, "sampled")
	refMulti   = multiCombo(0, 0)
	refTrace   = traceCombo(0, 0)
)

// layers is the traced run's per-layer pass: it times the calls into
// each module's public functions on a sample of the run's own specs.
func layers(o options, in *instance, outs []outcome, tr *tracer) (map[string]metric, error) {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// Simulated counts of the first countJobs fresh jobs of the seed's
	// sequence, from the recorded table: they repeat exactly for a seed
	// however fast the host runs, so a change that alters them changed
	// what is simulated.
	var fresh []job
	for _, x := range outs {
		if x.err == "" && x.job.Kind != "repeat" && x.job.Kind != "probe" {
			fresh = append(fresh, x.job)
		}
	}
	sort.Slice(fresh, func(i, j int) bool { return fresh[i].Seq < fresh[j].Seq })
	var c counters
	samples := map[string][]job{}
	for i, jb := range fresh {
		if i < countJobs {
			e := o.exp.counters[jb.Key]
			c.Instructions += e.Instructions
			c.L2 += e.L2
			c.Conflict += e.Conflict
			c.TLBMisses += e.TLBMisses
			c.Faults += e.Faults
			c.WarmupRefs += e.WarmupRefs
			c.Windows += e.Windows
		}
		k := jb.Kind
		if k == "attr" {
			k = "full"
		}
		if len(samples[k]) < layerSample {
			samples[k] = append(samples[k], jb)
		}
	}
	put("sim.instructions", float64(c.Instructions), "count")
	put("sim.l2_misses", float64(c.L2), "count")
	put("sim.conflict_misses", float64(c.Conflict), "count")
	put("sim.tlb_misses", float64(c.TLBMisses), "count")
	put("sim.page_faults", float64(c.Faults), "count")
	put("sim.warmup_refs", float64(c.WarmupRefs), "count")
	put("sim.sampled_windows", float64(c.Windows), "count")
	for kind, ref := range map[string]job{"full": refFull, "sampled": refSampled, "multi": refMulti, "trace": refTrace} {
		if len(samples[kind]) == 0 {
			samples[kind] = []job{ref}
		}
	}

	// server and harness: memo-served work, with and without a socket.
	hit := samples["full"][0]
	if o.workload == "service-mix" {
		hit = samples["sampled"][0]
	} else if o.workload == "trace-replay" {
		hit = samples["trace"][0]
	}
	hus, err := in.handlerHitUS(hit, tr)
	if err != nil {
		return nil, err
	}
	put("server.handler_hit_us", hus, "us")
	mus, err := in.memoHitUS(hit, tr)
	if err != nil {
		return nil, err
	}
	put("harness.memo_hit_us", mus, "us")

	// Compile pipeline on the IR specs, and the full engine.
	var prepare, build, layout, summarize, hints, initMS, fullMS, nsPerInst []float64
	irSpecs := append(append([]job(nil), samples["full"]...), samples["sampled"]...)
	for _, jb := range irSpecs {
		spec := specOf(jb.Req, nil)
		prepare = append(prepare, ms(tr.timed("harness.prepare", -1, func() { _, _, _, err = harness.Prepare(spec) })))
		if err != nil {
			return nil, err
		}
		p, err := compileTimed(spec, tr, &build, &layout, &summarize, &hints)
		if err != nil {
			return nil, err
		}
		if jb.Req.Fidelity == "sampled" {
			continue
		}
		res, d, init, err := runIR(p, false, nil, tr)
		if err != nil {
			return nil, err
		}
		initMS = append(initMS, init)
		fullMS = append(fullMS, ms(d))
		nsPerInst = append(nsPerInst, float64(d.Nanoseconds())/float64(res.Total(func(s *sim.CPUStats) uint64 { return s.Instructions })))
	}
	put("harness.prepare_ms", median(prepare), "ms")
	put("workloads.build_ms", median(build), "ms")
	put("compiler.layout_ms", median(layout), "ms")
	put("compiler.summarize_ms", median(summarize), "ms")
	put("core.hints_ms", median(hints), "ms")
	put("sim.full_run_ms", median(fullMS), "ms")
	put("sim.full_ns_per_inst", median(nsPerInst), "ns")

	var sampledMS []float64
	for _, jb := range samples["sampled"] {
		p, err := compileTimed(specOf(jb.Req, nil), nil, nil, nil, nil, nil)
		if err != nil {
			return nil, err
		}
		_, d, init, err := runIR(p, true, nil, tr)
		if err != nil {
			return nil, err
		}
		initMS = append(initMS, init)
		sampledMS = append(sampledMS, ms(d))
	}
	put("sim.sampled_run_ms", median(sampledMS), "ms")
	put("sim.init_ms", median(initMS), "ms")

	var multiMS []float64
	for _, jb := range samples["multi"] {
		d, err := runMulti(jb, tr)
		if err != nil {
			return nil, err
		}
		multiMS = append(multiMS, ms(d))
	}
	put("sim.multi_run_ms", median(multiMS), "ms")

	// obs: the attribution collector's cost on one full spec, runs with
	// and without it alternating.
	p, err := compileTimed(specOf(samples["full"][0].Req, nil), nil, nil, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	var plain, attr []float64
	for i := 0; i < attrPairs; i++ {
		_, d, _, err := runIR(p, false, nil, tr)
		if err != nil {
			return nil, err
		}
		plain = append(plain, ms(d))
		if _, d, _, err = runIR(p, false, obs.NewCollector(obs.Options{}), tr); err != nil {
			return nil, err
		}
		attr = append(attr, ms(d))
	}
	put("obs.attr_overhead_ratio", median(attr)/median(plain), "ratio")

	if err := traceLayers(o, in, samples["trace"], put, tr); err != nil {
		return nil, err
	}

	// Component replay of one fixed stream per workload family.
	var rep *replayStats
	if o.workload == "trace-replay" {
		f := in.traces[samples["trace"][0].Trace]
		spec := specOf(traceCombo(samples["trace"][0].Trace, 0).Req, harness.NewTraceWorkload("trace", f))
		rep, err = replayTrace(spec, f, tr)
		if err != nil {
			return nil, err
		}
	} else {
		rep, err = replayProgram(specOf(refFull.Req, nil), tr)
		if err != nil {
			return nil, err
		}
	}
	rep.put(put)
	return m, nil
}

// prepared is one compiled IR spec with the simulator options its
// variant selects.
type prepared struct {
	prog *ir.Program
	sum  *compiler.Summary
	cfg  arch.Config
	opts sim.Options
}

// compileTimed runs the compile pipeline a server job runs, one public
// call at a time, appending each call's milliseconds where asked.
func compileTimed(spec harness.Spec, tr *tracer, build, layout, summarize, hints *[]float64) (*prepared, error) {
	add := func(dst *[]float64, d time.Duration) {
		if dst != nil {
			*dst = append(*dst, ms(d))
		}
	}
	meta, err := workloads.ByName(spec.Workload)
	if err != nil {
		return nil, err
	}
	p := &prepared{cfg: spec.Config()}
	scale := spec.Scale
	if scale == 0 {
		scale = workloads.DefaultScale
	}
	add(build, tr.timed("workloads.build", -1, func() { p.prog = meta.Build(scale) }))
	llc := p.cfg.Topo().LLC()
	lo := compiler.DefaultLayout(llc.Geom.LineSize, p.cfg.L1D.Size, p.cfg.PageSize)
	add(layout, tr.timed("compiler.layout", -1, func() { err = compiler.Layout(p.prog, lo) }))
	if err != nil {
		return nil, err
	}
	add(summarize, tr.timed("compiler.summarize", -1, func() { p.sum = compiler.Summarize(p.prog) }))
	// Hints are computed for every variant so the core layer is timed on
	// every sampled program; only cdpc installs them.
	colors := p.cfg.Colors()
	var h *core.Hints
	add(hints, tr.timed("core.hints", -1, func() {
		h, err = core.ComputeHintsOpt(p.prog, p.sum, core.Params{NumCPUs: p.cfg.NumCPUs, NumColors: colors, PageSize: p.cfg.PageSize}, core.Options{})
	}))
	if err != nil {
		return nil, err
	}
	p.opts = sim.Options{Config: p.cfg, Policy: policyFor(spec.Variant, colors)}
	if spec.Variant == harness.CDPC {
		p.opts.Hints = h.Colors
	}
	return p, nil
}

// policyFor is the placement policy a variant of the benchmark's
// variant axis runs; cdpc places unhinted pages by page coloring.
func policyFor(v harness.Variant, colors int) vm.Policy {
	switch v {
	case harness.BinHopping:
		return &vm.BinHopping{Colors: colors}
	case harness.FirstTouch:
		return &vm.FirstTouch{}
	}
	return vm.PageColoring{Colors: colors}
}

// runIR builds a machine (timing sim.New) and runs the program full or
// sampled, optionally with an attribution collector.
func runIR(p *prepared, sampled bool, col *obs.Collector, tr *tracer) (*sim.Result, time.Duration, float64, error) {
	opts := p.opts
	opts.Obs = col
	if sampled {
		var cl []sim.PhaseCluster
		for _, c := range compiler.ClusterPhases(p.prog) {
			cl = append(cl, sim.PhaseCluster{Rep: c.Rep, Members: c.Members})
		}
		opts.Sampling = sim.SamplingOptions{Enabled: true, Clusters: cl}
	}
	var m *sim.Machine
	var err error
	init := ms(tr.timed("sim.init", -1, func() { m, err = sim.New(opts) }))
	if err != nil {
		return nil, 0, 0, err
	}
	name := "sim.run_full"
	if sampled {
		name = "sim.run_sampled"
	}
	var res *sim.Result
	d := tr.timed(name, -1, func() { res, err = m.Run(p.prog) })
	return res, d, init, err
}

// runMulti times the multiprocess engine on one co-scheduled spec.
func runMulti(jb job, tr *tracer) (time.Duration, error) {
	spec := specOf(jb.Req, nil)
	var procs []sim.ProcessOptions
	var cfg arch.Config
	for _, w := range []string{jb.Req.Workload, jb.Req.CoRunners[0].Workload} {
		ps := spec
		ps.Workload, ps.CoRunners = w, nil
		p, err := compileTimed(ps, nil, nil, nil, nil, nil)
		if err != nil {
			return 0, err
		}
		cfg = p.cfg
		procs = append(procs, sim.ProcessOptions{Prog: p.prog, Policy: p.opts.Policy, Hints: p.opts.Hints})
	}
	m, err := sim.New(sim.Options{Config: cfg})
	if err != nil {
		return 0, err
	}
	return tr.timed("sim.run_multi", -1, func() {
		_, err = m.RunProcesses(procs, sim.SchedOptions{Policy: sim.SchedTimeSlice})
	}), err
}

// traceLayers times the trace codec, the online summarizer, uploads
// and the trace engine.
func traceLayers(o options, in *instance, specs []job, put func(string, float64, string), tr *tracer) error {
	if len(in.traces) == 0 {
		// IR workloads never upload; upload trace 0 to time the path.
		if err := in.uploadTraces(o.exp, 1); err != nil {
			return err
		}
	}
	put("trace.encode_ns_per_ref", in.encodeNS, "ns")
	put("trace.upload_ms", median(in.uploadMS), "ms")
	var decode, bpr, summarize, nsPerRef []float64
	for _, jb := range specs {
		f := in.traces[jb.Trace]
		data := f.AppendBinary(nil)
		var err error
		d := tr.timed("trace.decode", -1, func() { _, err = trace.DecodeBytes(data) })
		if err != nil {
			return err
		}
		refs := float64(f.TotalRefs())
		decode = append(decode, float64(d.Nanoseconds())/refs)
		bpr = append(bpr, float64(len(data))/refs)
		cfg := specOf(jb.Req, harness.NewTraceWorkload("trace", f)).Config()
		var hints map[uint64]int
		summarize = append(summarize, ms(tr.timed("trace.summarize", -1, func() {
			hints = trace.PreferredColors(f, cfg.PageSize, cfg.Colors(), 0)
		})))
		if harness.Variant(jb.Req.Variant) != harness.CDPC {
			hints = nil
		}
		m, err := sim.New(sim.Options{Config: cfg, Policy: policyFor(harness.Variant(jb.Req.Variant), cfg.Colors())})
		if err != nil {
			return err
		}
		d = tr.timed("sim.run_trace", -1, func() { _, err = m.RunSource(sim.NewTraceSource("trace", f, hints)) })
		if err != nil {
			return err
		}
		nsPerRef = append(nsPerRef, float64(d.Nanoseconds())/refs)
	}
	put("trace.decode_ns_per_ref", median(decode), "ns")
	put("trace.bytes_per_ref", median(bpr), "B")
	put("trace.summarize_ms", median(summarize), "ms")
	put("sim.trace_ns_per_ref", median(nsPerRef), "ns")
	return nil
}

// request renders a job as the JSON body cdpcd receives.
func (in *instance) request(jb job) ([]byte, error) {
	req := jb.Req
	if jb.Trace >= 0 {
		req.TraceID = in.traceIDs[jb.Trace]
	}
	return json.Marshal(req)
}

// handlerHitUS times ServeHTTP on a memoized spec straight into a
// recorder: the server's own cost of a memo hit, with no socket.
func (in *instance) handlerHitUS(jb job, tr *tracer) (float64, error) {
	body, err := in.request(jb)
	if err != nil {
		return 0, err
	}
	h := in.srv.Handler()
	var us []float64
	for i := 0; i < hitCalls; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body))
		d := tr.timed("server.handler_hit", -1, func() { h.ServeHTTP(rec, req) })
		var res server.JobResult
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &res) != nil || !res.Cached {
			return 0, fmt.Errorf("handler hit on %s: status %d", jb.Key, rec.Code)
		}
		us = append(us, float64(d.Nanoseconds())/1e3)
	}
	return median(us), nil
}

// memoHitUS times Scheduler.Run on the same memoized spec.
func (in *instance) memoHitUS(jb job, tr *tracer) (float64, error) {
	var tw *harness.TraceWorkload
	if jb.Trace >= 0 {
		id := in.traceIDs[jb.Trace]
		tw = harness.NewTraceWorkload("trace:"+id[:12], in.traces[jb.Trace])
	}
	spec := specOf(jb.Req, tw)
	sc := in.srv.Scheduler()
	if !sc.HasResult(spec) {
		return 0, fmt.Errorf("memo hit on %s: spec not memoized", jb.Key)
	}
	var us []float64
	for i := 0; i < hitCalls; i++ {
		var err error
		d := tr.timed("harness.memo_hit", -1, func() { _, err = sc.Run(spec) })
		if err != nil {
			return 0, err
		}
		us = append(us, float64(d.Nanoseconds())/1e3)
	}
	return median(us), nil
}
