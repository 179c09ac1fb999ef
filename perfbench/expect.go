package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/harness"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// counters are the simulated outcomes of one spec. The first block is
// what a cdpcd response carries and is checked field by field; the
// second block is library-only and feeds the benchmark's metrics.
type counters struct {
	WallCycles, CombinedCycles                   uint64
	MCPI, BusUtil                                float64
	L2, Cold, Conflict, Capacity, Sharing        uint64
	Faults, Hinted, Honored, Cross               uint64
	Fidelity                                     string
	Instructions, TLBMisses, WarmupRefs, Windows uint64
}

func fromResult(r *sim.Result) counters {
	sum := func(f func(*sim.CPUStats) uint64) uint64 { return r.Total(f) }
	return counters{
		WallCycles:     r.WallCycles,
		CombinedCycles: r.CombinedCycles(),
		MCPI:           r.MCPI(),
		BusUtil:        r.BusUtilization(),
		L2:             sum(func(s *sim.CPUStats) uint64 { return s.L2Misses }),
		Cold:           sum(func(s *sim.CPUStats) uint64 { return s.ColdMisses }),
		Conflict:       sum(func(s *sim.CPUStats) uint64 { return s.ConflictMisses }),
		Capacity:       sum(func(s *sim.CPUStats) uint64 { return s.CapacityMisses }),
		Sharing:        sum(func(s *sim.CPUStats) uint64 { return s.TrueShareMisses + s.FalseShareMisses }),
		Faults:         r.PageFaults,
		Hinted:         r.HintedFaults,
		Honored:        r.HonoredHints,
		Cross:          sum(func(s *sim.CPUStats) uint64 { return s.CrossDomainConflicts }),
		Fidelity:       r.Fidelity,
		Instructions:   sum(func(s *sim.CPUStats) uint64 { return s.Instructions }),
		TLBMisses:      sum(func(s *sim.CPUStats) uint64 { return s.TLBMisses }),
		WarmupRefs:     r.WarmupRefs,
		Windows:        r.SampledWindows,
	}
}

// mismatch compares a response against the expected counters and
// describes the first difference ("" when they agree).
func (c counters) mismatch(r *server.JobResult) string {
	got := counters{
		WallCycles: r.WallCycles, CombinedCycles: r.CombinedCycles, MCPI: r.MCPI, BusUtil: r.BusUtilization,
		L2: r.L2Misses, Cold: r.ColdMisses, Conflict: r.ConflictMisses, Capacity: r.CapacityMisses,
		Sharing: r.SharingMisses, Faults: r.PageFaults, Hinted: r.HintedFaults, Honored: r.HonoredHints,
		Cross: r.CrossDomainConflicts, Fidelity: r.Fidelity,
	}
	want := c
	want.Instructions, want.TLBMisses, want.WarmupRefs, want.Windows = 0, 0, 0, 0
	if got != want {
		return fmt.Sprintf("got %+v, want %+v", got, want)
	}
	return ""
}

func (c counters) fields() []string {
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return []string{u(c.WallCycles), u(c.CombinedCycles), f(c.MCPI), f(c.BusUtil), u(c.L2), u(c.Cold),
		u(c.Conflict), u(c.Capacity), u(c.Sharing), u(c.Faults), u(c.Hinted), u(c.Honored), u(c.Cross),
		c.Fidelity, u(c.Instructions), u(c.TLBMisses), u(c.WarmupRefs), u(c.Windows)}
}

func parseCounters(fs []string) (counters, error) {
	var c counters
	if len(fs) != 18 {
		return c, fmt.Errorf("%d fields, want 18", len(fs))
	}
	us := []*uint64{&c.WallCycles, &c.CombinedCycles, nil, nil, &c.L2, &c.Cold, &c.Conflict, &c.Capacity,
		&c.Sharing, &c.Faults, &c.Hinted, &c.Honored, &c.Cross, nil, &c.Instructions, &c.TLBMisses,
		&c.WarmupRefs, &c.Windows}
	var err error
	for i, p := range us {
		if p != nil {
			if *p, err = strconv.ParseUint(fs[i], 10, 64); err != nil {
				return c, err
			}
		}
	}
	if c.MCPI, err = strconv.ParseFloat(fs[2], 64); err != nil {
		return c, err
	}
	if c.BusUtil, err = strconv.ParseFloat(fs[3], 64); err != nil {
		return c, err
	}
	c.Fidelity = fs[13]
	return c, nil
}

// expectations is the recorded table: expected counters per spec key
// and the content hash of every pool trace.
type expectations struct {
	counters    map[string]counters
	traceHashes map[int]string
}

func loadExpectations(path string) (*expectations, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	e := &expectations{counters: map[string]counters{}, traceHashes: map[int]string{}}
	sc := bufio.NewScanner(f)
	for ln := 1; sc.Scan(); ln++ {
		fs := strings.Split(sc.Text(), "\t")
		switch {
		case fs[0] == "trace" && len(fs) == 3:
			i, err := strconv.Atoi(fs[1])
			if err != nil {
				return nil, fmt.Errorf("%s:%d: %v", path, ln, err)
			}
			e.traceHashes[i] = fs[2]
		default:
			c, err := parseCounters(fs[1:])
			if err != nil {
				return nil, fmt.Errorf("%s:%d: %v", path, ln, err)
			}
			e.counters[fs[0]] = c
		}
	}
	return e, sc.Err()
}

// specOf resolves a request into the harness spec cdpcd runs for it,
// the way the server's validation does.
func specOf(r server.JobRequest, tr *harness.TraceWorkload) harness.Spec {
	s := harness.Spec{Workload: r.Workload, Scale: r.Scale, CPUs: r.CPUs, Machine: harness.MachineKind(r.Machine), Topology: r.Topology,
		Variant: harness.Variant(r.Variant), Sampled: r.Fidelity == "sampled", Trace: tr}
	for _, cr := range r.CoRunners {
		s.CoRunners = append(s.CoRunners, harness.CoRunner{Workload: cr.Workload, Variant: harness.Variant(cr.Variant)})
	}
	return s
}

// universe lists every job any seed can generate, plus the warm-up jobs.
func universe() []job {
	var out []job
	for _, w := range workloads.Names() {
		for j := 0; j < irCombos(); j++ {
			out = append(out, irCombo(w, j, "full"), irCombo(w, j, "sampled"))
		}
	}
	for i := range workloads.Names() {
		for j := 0; j < multiCombos(); j++ {
			out = append(out, multiCombo(i, j))
		}
	}
	for i := 0; i < tracePool; i++ {
		for j := 0; j < traceCombos(); j++ {
			out = append(out, traceCombo(i, j))
		}
	}
	for _, w := range []string{"full-sweep", "service-mix", "trace-replay"} {
		out = append(out, warmupJobs(w)...)
	}
	return out
}

// runLibrary simulates a job through the harness library, audits the
// result and returns its counters.
func runLibrary(jb job, traces []*trace.File) (counters, error) {
	var tw *harness.TraceWorkload
	if jb.Trace >= 0 {
		tw = harness.NewTraceWorkload(fmt.Sprintf("trace%d", jb.Trace), traces[jb.Trace])
	}
	spec := specOf(jb.Req, tw)
	if len(spec.CoRunners) > 0 {
		mr, err := harness.RunMulti(spec)
		if err != nil {
			return counters{}, err
		}
		if vs := mr.Audit(); len(vs) > 0 {
			return counters{}, fmt.Errorf("audit: %v", vs)
		}
		return fromResult(mr.Total), nil
	}
	res, err := harness.Run(spec)
	if err != nil {
		return counters{}, err
	}
	if vs := res.Audit(); len(vs) > 0 {
		return counters{}, fmt.Errorf("audit: %v", vs)
	}
	return fromResult(res), nil
}

// record simulates every reachable spec through the library on all
// CPUs and writes the expectations table. Counters already in an
// existing table at path are kept for specs still reachable, so
// widening a universe only simulates the new specs.
func record(path string) error {
	old := &expectations{counters: map[string]counters{}}
	if _, err := os.Stat(path); err == nil {
		if old, err = loadExpectations(path); err != nil {
			return err
		}
	}
	traces := make([]*trace.File, tracePool)
	for i := range traces {
		f, err := genTrace(i)
		if err != nil {
			return err
		}
		traces[i] = f
	}
	jobs := map[string]job{}
	for _, jb := range universe() {
		jobs[jb.Key] = jb
	}
	keys := make([]string, 0, len(jobs))
	for k := range jobs {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	out := make([]counters, len(keys))
	errs := make([]error, len(keys))
	var todo []int
	for i, k := range keys {
		if c, ok := old.counters[k]; ok {
			out[i] = c
		} else {
			todo = append(todo, i)
		}
	}
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				n := next
				next++
				mu.Unlock()
				if n >= len(todo) {
					return
				}
				i := todo[n]
				out[i], errs[i] = runLibrary(jobs[keys[i]], traces)
				if n%200 == 0 {
					fmt.Fprintf(os.Stderr, "recorded %d/%d\n", n, len(todo))
				}
			}
		}()
	}
	wg.Wait()

	var b strings.Builder
	for i, f := range traces {
		fmt.Fprintf(&b, "trace\t%d\t%s\n", i, f.Hash())
	}
	for i, k := range keys {
		if errs[i] != nil {
			return fmt.Errorf("%s: %w", k, errs[i])
		}
		b.WriteString(k + "\t" + strings.Join(out[i].fields(), "\t") + "\n")
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
