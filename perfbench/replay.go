package main

import (
	"fmt"
	"time"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/harness"
	"repro/internal/memory"
	"repro/internal/sim"
	"repro/internal/tlb"
	"repro/internal/trace"
	"repro/internal/vm"
)

// The component replay feeds one job's recorded reference streams
// through the public calls of each simulator layer, in the engine's
// order and with the default geometry, one layer per pass over a chunk
// of references so each pass times exactly one layer. It is a model of
// the engine's per-reference path, not the engine: CPUs interleave
// round-robin instead of by clock, invalidations are not mirrored into
// other caches, and bus times come from a synthetic clock. The
// replay_sum_ratio metric guards how far that model drifts.

// chunkRefs bounds the references buffered per pass.
const chunkRefs = 1 << 16

// replayStats holds each layer's call count and busy time.
type replayStats struct {
	refs                                               uint64
	tlbN, tlbMiss, l1N, l1Miss, trN, faults            uint64
	shadowN, llcN, llcMiss, dirN, evictN, busN         uint64
	tlbT, l1T, trT, shadowT, llcT, dirT, dirAccT, busT time.Duration
	allocT                                             time.Duration
	engine                                             time.Duration
}

type transCache struct {
	vpn, pbase uint64
	valid      bool
}

// replayer is the component state of one simulated machine.
type replayer struct {
	st        replayStats
	pageShift uint
	pageMask  uint64
	line      int
	as        *vm.AddressSpace
	tlbs      []*tlb.TLB
	l1d, l1i  []*cache.Cache
	llc       []*cache.Cache
	shadow    []*cache.Shadow
	dir, dirA *coherence.Directory
	bus       *bus.Bus
	tcD, tcI  []transCache
	clock     []uint64
	colors    int
	frames    int

	// per-chunk scratch
	cpu             []int
	ref             []trace.Ref
	l1Hit, need     []bool
	paddr, victim   []uint64
	llcMiss, evicts []bool
	dirty           []bool
}

func newReplayer(spec harness.Spec, hints map[uint64]int) (*replayer, error) {
	cfg := spec.Config()
	if cfg.Topology != nil || harness.Variant(spec.Variant) != harness.PageColoring {
		return nil, fmt.Errorf("replay: %s must run page coloring on the default topology", spec.Workload)
	}
	llc := cfg.Topo().LLC().Geom
	colors := cfg.Colors()
	frames := cfg.MemoryMB << 20 / cfg.PageSize
	alloc := memory.New(frames, colors)
	r := &replayer{
		pageShift: uint(cfg.PageShift()),
		pageMask:  uint64(cfg.PageSize - 1),
		line:      llc.LineSize,
		as:        vm.NewAddressSpace(cfg.PageSize, alloc, vm.PageColoring{Colors: colors}),
		dir:       coherence.New(cfg.NumCPUs, llc.LineSize),
		dirA:      coherence.New(cfg.NumCPUs, llc.LineSize),
		bus:       bus.New(cfg.BusBytesPerCycle, cfg.BusOverhead),
		tcD:       make([]transCache, cfg.NumCPUs),
		tcI:       make([]transCache, cfg.NumCPUs),
		clock:     make([]uint64, cfg.NumCPUs),
		colors:    colors,
		frames:    frames,
	}
	if hints != nil {
		r.as.Advise(hints)
	}
	for i := 0; i < cfg.NumCPUs; i++ {
		r.tlbs = append(r.tlbs, tlb.New(cfg.TLBEntries))
		r.l1d = append(r.l1d, cache.New(cfg.L1D))
		r.l1i = append(r.l1i, cache.New(cfg.L1I))
		r.llc = append(r.llc, cache.New(llc))
		r.shadow = append(r.shadow, cache.NewShadow(llc.Lines(), llc.LineSize))
	}
	return r, nil
}

// region replays one execution region: the master's stream alone for
// sequential regions, every CPU's stream round-robin for parallel ones.
func (r *replayer) region(reg sim.Region) error {
	p := len(r.tlbs)
	var streams []trace.Stream
	if reg.Parallel() && !reg.Suppressed() && p > 1 {
		for c := 0; c < p; c++ {
			streams = append(streams, reg.Stream(p, c))
		}
	} else {
		streams = []trace.Stream{reg.Stream(p, 0)}
	}
	live := len(streams)
	done := make([]bool, len(streams))
	for live > 0 {
		r.cpu, r.ref = r.cpu[:0], r.ref[:0]
		for len(r.ref) < chunkRefs && live > 0 {
			for c, s := range streams {
				if done[c] {
					continue
				}
				var ref trace.Ref
				if !s.Next(&ref) {
					done[c] = true
					live--
					continue
				}
				r.cpu = append(r.cpu, c)
				r.ref = append(r.ref, ref)
			}
		}
		if err := r.chunk(); err != nil {
			return err
		}
	}
	return nil
}

// chunk runs the buffered references through every layer, one timed
// pass per layer, in the engine's per-reference order.
func (r *replayer) chunk() error {
	n := len(r.ref)
	r.st.refs += uint64(n)
	grow := func(b []bool) []bool { return append(b[:0], make([]bool, n)...) }
	r.l1Hit, r.need, r.llcMiss, r.evicts, r.dirty = grow(r.l1Hit), grow(r.need), grow(r.llcMiss), grow(r.evicts), grow(r.dirty)
	r.paddr = append(r.paddr[:0], make([]uint64, n)...)
	r.victim = append(r.victim[:0], make([]uint64, n)...)

	t := time.Now()
	for i, ref := range r.ref {
		if ref.Kind == trace.Read || ref.Kind == trace.Write {
			r.st.tlbN++
			if !r.tlbs[r.cpu[i]].Lookup(ref.VAddr >> r.pageShift) {
				r.st.tlbMiss++
			}
		}
	}
	r.st.tlbT += time.Since(t)

	t = time.Now()
	for i, ref := range r.ref {
		var res cache.Result
		switch ref.Kind {
		case trace.Inst:
			res = r.l1i[r.cpu[i]].Access(ref.VAddr, false)
		case trace.Read, trace.Write:
			res = r.l1d[r.cpu[i]].Access(ref.VAddr, ref.Kind == trace.Write)
		default:
			continue
		}
		r.st.l1N++
		r.l1Hit[i] = res.Hit
		if !res.Hit {
			r.st.l1Miss++
		}
	}
	r.st.l1T += time.Since(t)

	faults := r.as.Faults
	t = time.Now()
	for i, ref := range r.ref {
		var tc *transCache
		switch {
		case ref.Kind == trace.Inst && !r.l1Hit[i]:
			tc = &r.tcI[r.cpu[i]]
			r.need[i] = true
		case ref.Kind == trace.Read || ref.Kind == trace.Write:
			tc = &r.tcD[r.cpu[i]]
			r.need[i] = ref.Kind == trace.Write || !r.l1Hit[i]
		default:
			continue
		}
		vpn := ref.VAddr >> r.pageShift
		if !tc.valid || tc.vpn != vpn {
			r.st.trN++
			pbase, _, err := r.as.TranslateVPN(vpn, r.cpu[i])
			if err != nil {
				return err
			}
			*tc = transCache{vpn: vpn, pbase: pbase, valid: true}
		}
		r.paddr[i] = tc.pbase | ref.VAddr&r.pageMask
	}
	r.st.trT += time.Since(t)
	r.st.faults += r.as.Faults - faults

	t = time.Now()
	for i := range r.ref {
		if r.need[i] {
			r.st.shadowN++
			r.shadow[r.cpu[i]].Access(r.paddr[i])
		}
	}
	r.st.shadowT += time.Since(t)

	t = time.Now()
	for i, ref := range r.ref {
		if r.need[i] {
			r.st.llcN++
			res := r.llc[r.cpu[i]].Access(r.paddr[i], ref.Kind == trace.Write)
			r.llcMiss[i] = !res.Hit
			r.evicts[i], r.victim[i], r.dirty[i] = res.Evicted, res.VictimAddr, res.VictimDirty
			if !res.Hit {
				r.st.llcMiss++
			}
		}
	}
	r.st.llcT += time.Since(t)

	// The directory sees accesses interleaved with the LLC's evictions;
	// a second directory fed the accesses alone separates the two costs.
	t = time.Now()
	for i, ref := range r.ref {
		if r.need[i] {
			r.st.dirN++
			r.dir.Access(r.cpu[i], r.paddr[i], ref.Kind == trace.Write)
			if r.evicts[i] {
				r.st.evictN++
				r.dir.Evict(r.cpu[i], r.victim[i])
			}
		}
	}
	r.st.dirT += time.Since(t)
	t = time.Now()
	for i, ref := range r.ref {
		if r.need[i] {
			r.dirA.Access(r.cpu[i], r.paddr[i], ref.Kind == trace.Write)
		}
	}
	r.st.dirAccT += time.Since(t)

	for i, ref := range r.ref {
		r.clock[r.cpu[i]] += uint64(ref.Work) + 1
	}
	t = time.Now()
	for i := range r.ref {
		c := r.cpu[i]
		if r.llcMiss[i] {
			r.st.busN++
			r.clock[c] = r.bus.Acquire(r.clock[c], r.line, bus.Data)
		}
		if r.dirty[i] {
			r.st.busN++
			r.bus.Acquire(r.clock[c], r.line, bus.Writeback)
		}
	}
	r.st.busT += time.Since(t)
	return nil
}

// allocs times memory.Alloc for the replay's page faults on a fresh
// allocator, at the colors page coloring asks for.
func (r *replayer) allocs() error {
	alloc := memory.New(r.frames, r.colors)
	t := time.Now()
	for i := uint64(0); i < r.st.faults; i++ {
		if _, _, err := alloc.Alloc(int(i) % r.colors); err != nil {
			return err
		}
	}
	r.st.allocT = time.Since(t)
	return nil
}

// replaySource replays a source the way the engine runs it: init
// regions once, then every phase twice when the source has a warm-up
// pass, once otherwise.
func replaySource(spec harness.Spec, src sim.Source, hints map[uint64]int) (*replayStats, error) {
	r, err := newReplayer(spec, hints)
	if err != nil {
		return nil, err
	}
	for _, reg := range src.InitRegions() {
		if err := r.region(reg); err != nil {
			return nil, err
		}
	}
	passes := 1
	if src.WarmupPass() {
		passes = 2
	}
	for i := 0; i < passes; i++ {
		for _, ph := range src.Phases() {
			for _, reg := range ph.Regions {
				if err := r.region(reg); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := r.allocs(); err != nil {
		return nil, err
	}
	return &r.st, nil
}

// replayProgram replays one fixed IR job and times the engine on it.
func replayProgram(spec harness.Spec, tr *tracer) (*replayStats, error) {
	p, err := compileTimed(spec, nil, nil, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	_, engine, _, err := runIR(p, false, nil, tr)
	if err != nil {
		return nil, err
	}
	var st *replayStats
	tr.timed("replay.program", -1, func() { st, err = replaySource(spec, sim.ProgramSource(p.prog), p.opts.Hints) })
	if err != nil {
		return nil, err
	}
	st.engine = engine
	return st, nil
}

// replayTrace replays one synthetic trace job and times the engine on it.
func replayTrace(spec harness.Spec, f *trace.File, tr *tracer) (*replayStats, error) {
	cfg := spec.Config()
	m, err := sim.New(sim.Options{Config: cfg})
	if err != nil {
		return nil, err
	}
	engine := tr.timed("sim.run_trace", -1, func() { _, err = m.RunSource(sim.NewTraceSource("trace", f, nil)) })
	if err != nil {
		return nil, err
	}
	var st *replayStats
	tr.timed("replay.trace", -1, func() { st, err = replaySource(spec, sim.NewTraceSource("trace", f, nil), nil) })
	if err != nil {
		return nil, err
	}
	st.engine = engine
	return st, nil
}

func perOp(d time.Duration, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (s *replayStats) put(put func(string, float64, string)) {
	evict := s.dirT - s.dirAccT
	if evict < 0 {
		evict = 0
	}
	put("tlb.ns_per_lookup", perOp(s.tlbT, s.tlbN), "ns")
	put("tlb.miss_ratio", ratio(s.tlbMiss, s.tlbN), "ratio")
	put("vm.ns_per_translate", perOp(s.trT, s.trN), "ns")
	put("memory.ns_per_alloc", perOp(s.allocT, s.faults), "ns")
	put("cache.l1_ns_per_access", perOp(s.l1T, s.l1N), "ns")
	put("cache.l1_miss_ratio", ratio(s.l1Miss, s.l1N), "ratio")
	put("cache.llc_ns_per_access", perOp(s.llcT, s.llcN), "ns")
	put("cache.llc_miss_ratio", ratio(s.llcMiss, s.llcN), "ratio")
	put("cache.shadow_ns_per_access", perOp(s.shadowT, s.shadowN), "ns")
	put("coherence.ns_per_access", perOp(s.dirAccT, s.dirN), "ns")
	put("coherence.ns_per_evict", perOp(evict, s.evictN), "ns")
	put("bus.ns_per_acquire", perOp(s.busT, s.busN), "ns")
	// Count-weighted replay cost per reference over the engine's cost
	// per reference on the same job; translation already includes the
	// allocator calls its faults make.
	sum := s.tlbT + s.l1T + s.trT + s.shadowT + s.llcT + s.dirT + s.busT
	put("layers.replay_sum_ratio", float64(sum)/float64(s.engine), "ratio")
	put("layers.replay_refs", float64(s.refs), "count")
}
