package main

import (
	"fmt"
	"math/rand"

	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// A job is one generated request plus what the benchmark needs to
// check and classify its response.
type job struct {
	// Kind is the population the job's latency joins: fresh full,
	// sampled, multi, attr or trace jobs, repeat (a re-request of an
	// earlier spec, served from the memo or coalesced onto its run) or
	// probe (a re-request of the set-up's warm-up spec).
	Kind string
	// Key names the expected counters in the recorded table. Repeats and
	// attr jobs share the key of the spec they re-run.
	Key string
	Req server.JobRequest
	// Trace is the pool index of a trace job's trace, -1 otherwise.
	Trace int
	// Seq is the job's position in its run's sequence.
	Seq int
}

// The axes every spec universe is built from. Changing any of them
// changes the reachable specs, so expected.tsv must be re-recorded.
var (
	cpuAxis     = []int{1, 2, 4, 8, 16}
	variantAxis = []string{"page-coloring", "bin-hopping", "cdpc", "first-touch"}
	// widenAxis multiplies the ten workloads x five CPU counts x four
	// variants by scale and topology, so a run never repeats a spec even
	// on a host several times faster than the one the table was
	// recorded on.
	widenAxis = []struct {
		scale int
		topo  string
	}{{16, ""}, {32, ""}, {16, "clustered-l3"}, {32, "clustered-l3"}, {16, "sliced-llc4"}, {32, "sliced-llc4"}}
	// multiPartner offsets the co-runner's workload from the primary's
	// in the registry order (0 co-runs a second instance).
	multiPartner = []int{0, 1, 5}
	multiCPUs    = []int{4, 8}
	traceCPUs    = []int{4, 8, 16}
	// tracePool is the number of synthetic traces every trace-replay
	// setup generates and uploads.
	tracePool = 16
)

// irCombo maps combo index j (0..119) of one workload to a request.
// Consecutive indices vary the CPU count fastest (the largest cost
// factor), then the widening, then the variant, so any 5 consecutive
// combos of a workload cover every CPU count and any 30 cover every
// (CPU count, widening) pair once: the cost mix of a run does not
// depend on the seed.
func irCombo(w string, j int, fidelity string) job {
	c := cpuAxis[j%len(cpuAxis)]
	x := widenAxis[(j/len(cpuAxis))%len(widenAxis)]
	v := variantAxis[j/(len(widenAxis)*len(cpuAxis))]
	req := server.JobRequest{Workload: w, CPUs: c, Scale: x.scale, Topology: x.topo, Variant: v, Fidelity: fidelity}
	return job{Kind: fidelity, Key: keyOf(req, -1), Req: req, Trace: -1}
}

func irCombos() int { return len(widenAxis) * len(cpuAxis) * len(variantAxis) }

func multiCombo(i, j int) job {
	ws := workloads.Names()
	d := multiPartner[j%len(multiPartner)]
	c := multiCPUs[(j/len(multiPartner))%len(multiCPUs)]
	v := variantAxis[j/(len(multiPartner)*len(multiCPUs))]
	req := server.JobRequest{Workload: ws[i], CPUs: c, Scale: 32, Variant: v,
		CoRunners: []server.CoRunnerRequest{{Workload: ws[(i+d)%len(ws)]}}}
	return job{Kind: "multi", Key: keyOf(req, -1), Req: req, Trace: -1}
}

// attrCombo is combo j (0..39) of the attributed jobs: the unsliced
// default-topology corner of the full-fidelity universe, whose cost
// spread is narrow enough that a run's few attributed jobs do not
// decide its latency tail.
func attrCombo(w string, j int) job {
	jb := irCombo(w, j%(2*len(cpuAxis))+j/(2*len(cpuAxis))*len(widenAxis)*len(cpuAxis), "full")
	jb.Kind = "attr"
	jb.Req.Fidelity = ""
	jb.Req.Attr = true
	return jb
}

func attrCombos() int { return 2 * len(cpuAxis) * len(variantAxis) }

func multiCombos() int { return len(multiPartner) * len(multiCPUs) * len(variantAxis) }

func traceCombo(i, j int) job {
	c := traceCPUs[j%len(traceCPUs)]
	x := widenAxis[(j/len(traceCPUs))%len(widenAxis)]
	v := variantAxis[j/(len(widenAxis)*len(traceCPUs))]
	req := server.JobRequest{CPUs: c, Scale: x.scale, Topology: x.topo, Variant: v}
	return job{Kind: "trace", Key: keyOf(req, i), Req: req, Trace: i}
}

func traceCombos() int { return len(widenAxis) * len(traceCPUs) * len(variantAxis) }

// keyOf renders a request's simulated identity: the fields that decide
// its counters (attr and timeouts do not).
func keyOf(r server.JobRequest, traceIdx int) string {
	src := r.Workload
	if traceIdx >= 0 {
		src = fmt.Sprintf("trace%d", traceIdx)
	}
	fid := r.Fidelity
	if fid == "" {
		fid = "full"
	}
	k := fmt.Sprintf("%s|%s|c%d|s%d|%s|%s", fid, src, r.CPUs, r.Scale, r.Topology, r.Variant)
	if r.Machine != "" {
		k += "|" + r.Machine
	}
	for _, cr := range r.CoRunners {
		k += "|+" + cr.Workload
	}
	return k
}

// balanced walks every item's combo list from a seeded offset, one
// combo per item per block, items shuffled within each block. It never
// yields a combo twice: after combos blocks it is exhausted.
type balanced struct {
	rng    *rand.Rand
	items  int
	combos int
	offset []int
	block  int
	order  []int
	pos    int
	mk     func(item, combo int) job
}

func newBalanced(rng *rand.Rand, items, combos int, mk func(item, combo int) job) *balanced {
	b := &balanced{rng: rng, items: items, combos: combos, mk: mk, pos: items}
	for i := 0; i < items; i++ {
		b.offset = append(b.offset, rng.Intn(combos))
	}
	return b
}

func (b *balanced) next() (job, bool) {
	if b.pos == b.items {
		if b.order != nil {
			b.block++
		}
		if b.block >= b.combos {
			return job{}, false
		}
		b.order = b.rng.Perm(b.items)
		b.pos = 0
	}
	i := b.order[b.pos]
	b.pos++
	return b.mk(i, (b.offset[i]+b.block)%b.combos), true
}

// sequence yields a workload's jobs in order; ok is false once the spec
// universe is exhausted.
type sequence interface {
	next() (job, bool)
}

func fullSweep(seed int64) sequence {
	ws := workloads.Names()
	return newBalanced(rand.New(rand.NewSource(seed)), len(ws), irCombos(), func(i, j int) job {
		return irCombo(ws[i], j, "full")
	})
}

func traceReplay(seed int64) sequence {
	return newBalanced(rand.New(rand.NewSource(seed)), tracePool, traceCombos(), traceCombo)
}

// probed follows every job of seq with a memo-hit probe: a re-request
// of the set-up's warm-up spec, which is always memoized. It gives the
// workloads without repeats a memo-served population timed across the
// whole window, under the load of the other client's simulation, as
// service-mix's repeats are. Probes are not fresh jobs and do not count
// toward jobs_per_s.
type probed struct {
	seq   sequence
	probe job
	turn  bool
}

func (p *probed) next() (job, bool) {
	p.turn = !p.turn
	if p.turn {
		return p.seq.next()
	}
	return p.probe, true
}

// serviceMix is the traffic of a shared cdpcd. Every block of
// len(mixBlock) jobs holds the designed shares in a seeded order.
type serviceMix struct {
	rng     *rand.Rand
	sampled *balanced
	multi   *balanced
	attr    *balanced
	fresh   []job // sampled jobs issued so far, repeat targets
	slots   []string
	done    bool // some share's universe ran out
}

// mixBlock is the designed traffic: 60% fresh sampled jobs, 25%
// repeats of recent sampled specs, 10% two-process co-scheduled jobs,
// 5% attributed jobs. The repeat share sits far from 50% so no
// reported percentile straddles the hit and fresh populations.
var mixBlock = []string{
	"sampled", "sampled", "sampled", "sampled", "sampled", "sampled",
	"sampled", "sampled", "sampled", "sampled", "sampled", "sampled",
	"repeat", "repeat", "repeat", "repeat", "repeat",
	"multi", "multi", "attr",
}

// repeatWindow is how many of the most recent sampled specs a repeat
// draws from.
const repeatWindow = 50

func newServiceMix(seed int64) *serviceMix {
	rng := rand.New(rand.NewSource(seed))
	ws := workloads.Names()
	return &serviceMix{
		rng: rng,
		sampled: newBalanced(rng, len(ws), irCombos(), func(i, j int) job {
			return irCombo(ws[i], j, "sampled")
		}),
		multi: newBalanced(rng, len(ws), multiCombos(), multiCombo),
		attr: newBalanced(rng, len(ws), attrCombos(), func(i, j int) job {
			return attrCombo(ws[i], j)
		}),
	}
}

func (m *serviceMix) next() (job, bool) {
	if m.done {
		return job{}, false
	}
	if len(m.slots) == 0 {
		m.slots = append(m.slots, mixBlock...)
		m.rng.Shuffle(len(m.slots), func(i, j int) { m.slots[i], m.slots[j] = m.slots[j], m.slots[i] })
	}
	kind := m.slots[0]
	m.slots = m.slots[1:]
	if kind == "repeat" && len(m.fresh) == 0 {
		kind = "sampled"
	}
	var jb job
	ok := true
	switch kind {
	case "repeat":
		lo := len(m.fresh) - repeatWindow
		if lo < 0 {
			lo = 0
		}
		jb = m.fresh[lo+m.rng.Intn(len(m.fresh)-lo)]
		jb.Kind = "repeat"
	case "multi":
		jb, ok = m.multi.next()
	case "attr":
		jb, ok = m.attr.next()
	default:
		if jb, ok = m.sampled.next(); ok {
			m.fresh = append(m.fresh, jb)
		}
	}
	m.done = !ok
	return jb, ok
}

// warmupJobs are the one-off jobs a setup runs per workload family so
// that lazy initialization is paid before measuring. The alpha machine
// keeps them outside every measured universe, so they never turn a
// measured job into a memo hit.
func warmupJobs(workload string) []job {
	mk := func(kind string, r server.JobRequest, tr int) job {
		return job{Kind: kind, Key: keyOf(r, tr), Req: r, Trace: tr}
	}
	full := server.JobRequest{Workload: "hydro2d", CPUs: 4, Scale: 16, Machine: "alpha", Variant: "cdpc"}
	switch workload {
	case "service-mix":
		sampled := full
		sampled.Fidelity = "sampled"
		multi := full
		multi.Scale = 32
		multi.CoRunners = []server.CoRunnerRequest{{Workload: "mgrid"}}
		return []job{mk("sampled", sampled, -1), mk("multi", multi, -1)}
	case "trace-replay":
		return []job{mk("trace", server.JobRequest{CPUs: 4, Scale: 16, Machine: "alpha", Variant: "cdpc"}, 0)}
	}
	return []job{mk("full", full, -1)}
}

func newSequence(workload string, seed int64) (sequence, error) {
	switch workload {
	case "full-sweep":
		return fullSweep(seed), nil
	case "service-mix":
		return newServiceMix(seed), nil
	case "trace-replay":
		return traceReplay(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (full-sweep, service-mix, trace-replay)", workload)
}

// Synthetic trace shape. Each CPU mixes a hot set of pages whose
// virtual page numbers are congruent modulo hotSpacing (the color count
// of the default machine at scale 16, so a color-blind allocator
// stacks them on one color), a strided sweep, irregular references over
// a larger region, and a small region shared by all CPUs.
const (
	pageSize   = 4096
	hotSpacing = 16
	traceRefs  = 120_000 // per trace, split over its CPUs
)

// genTrace builds pool trace i. Its content depends only on i, so the
// expected counters recorded for it hold for every benchmark seed.
func genTrace(i int) (*trace.File, error) {
	rng := rand.New(rand.NewSource(int64(1_000_003 * (i + 1))))
	ncpu := 2
	if i%2 == 1 {
		ncpu = 4
	}
	enc, err := trace.NewEncoder(ncpu)
	if err != nil {
		return nil, err
	}
	perCPU := traceRefs / ncpu
	shared := uint64(3) << 32
	for cpu := 0; cpu < ncpu; cpu++ {
		base := uint64(cpu+1) << 30
		hot := 10 + rng.Intn(6)
		strideLines := uint64(1 + rng.Intn(4))
		sweepPages := uint64(32 + rng.Intn(96))
		irregPages := uint64(128 + rng.Intn(384))
		var sweep uint64
		for n := 0; n < perCPU; n++ {
			var addr uint64
			p := rng.Intn(100)
			switch {
			case p < 45:
				addr = base + uint64(rng.Intn(hot)*hotSpacing)*pageSize + uint64(rng.Intn(pageSize/8))*8
			case p < 75:
				addr = base + 1<<28 + sweep*128%(sweepPages*pageSize)
				sweep += strideLines
			case p < 95:
				addr = base + 1<<29 + uint64(rng.Int63n(int64(irregPages*pageSize)))&^7
			default:
				addr = shared + uint64(rng.Intn(4*pageSize))&^7
			}
			kind := trace.Read
			if rng.Intn(4) == 0 {
				kind = trace.Write
			}
			if err := enc.Add(cpu, trace.Ref{Kind: kind, VAddr: addr, Size: 8, Work: uint32(rng.Intn(8))}); err != nil {
				return nil, err
			}
		}
	}
	return enc.File(), nil
}
