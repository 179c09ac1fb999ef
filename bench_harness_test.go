// Scheduler benchmarks: serial vs pooled execution of a full experiment
// through the harness scheduler, plus a machine-readable dump
// (BENCH_harness.json) for tracking across commits.
package repro_test

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/benchhost"
	"repro/internal/harness"
)

// fig6QuickSims is the number of simulations one quick Figure 6 render
// performs: 3 workloads x 2 CPU counts x 2 variants.
const fig6QuickSims = 12

// BenchmarkParallelExperiments compares a fully serial Figure 6 (quick)
// against the same experiment on the memoizing worker pool. Each
// iteration uses a fresh scheduler so memoization across iterations
// cannot flatter the parallel number; within an iteration the scheduler
// behaves exactly as cmd/experiments does.
func BenchmarkParallelExperiments(b *testing.B) {
	e, err := harness.ExperimentByID("fig6")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := e.Run(harness.ExpOptions{Quick: true}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(fig6QuickSims*b.N)/b.Elapsed().Seconds(), "sims/sec")
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			opts := harness.ExpOptions{Quick: true, Runner: harness.NewScheduler(0)}
			if _, err := e.Run(opts); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(fig6QuickSims*b.N)/b.Elapsed().Seconds(), "sims/sec")
	})
}

// harnessBench is the schema of BENCH_harness.json.
type harnessBench struct {
	// Host is the machine every number below was measured on.
	Host               benchhost.Host `json:"host"`
	Benchmark          string         `json:"benchmark"`
	Workers            int            `json:"workers"`
	SimsPerOp          int            `json:"sims_per_op"`
	SerialNsPerOp      int64          `json:"serial_ns_per_op"`
	ParallelNsPerOp    int64          `json:"parallel_ns_per_op"`
	SerialSimsPerSec   float64        `json:"serial_sims_per_sec"`
	ParallelSimsPerSec float64        `json:"parallel_sims_per_sec"`
	// Speedup is serial/parallel wall time. Omitted when the pool has a
	// single worker: a 1-worker "parallel" run is the serial path plus
	// scheduler overhead, and recording its ratio as a speedup would
	// bake a meaningless ~0.97x into the regression baseline.
	Speedup float64 `json:"speedup,omitempty"`
	// SimThroughputNsPerOp is one BenchmarkSimulatorThroughput iteration
	// (tomcatv on 1 CPU through the full simulator). scripts/verify.sh
	// re-times that benchmark and fails if it regresses more than 25%
	// against this baseline on the same host.
	SimThroughputNsPerOp int64 `json:"sim_throughput_ns_per_op"`
	// SampledThroughputNsPerOp is the same run in phase-sampled mode
	// (BenchmarkSimulatorThroughputSampled); the issue budget is >=10x
	// over SimThroughputNsPerOp, and verify.sh guards it against >25%
	// regression like the full-fidelity number.
	SampledThroughputNsPerOp int64 `json:"sampled_throughput_ns_per_op"`
	// TraceDecodeNsPerRef is the per-reference cost of decoding and
	// draining the BenchmarkTraceDecode fixture — the input path of
	// trace-driven simulation (DESIGN.md §15.2). verify.sh re-times the
	// benchmark's ns/ref metric and fails on a >25% regression.
	TraceDecodeNsPerRef float64 `json:"trace_decode_ns_per_ref"`
}

// TestRecordedSampledSpeedup asserts the issue's throughput budget on
// the recorded baselines: phase-sampled simulation must be at least
// 10x faster than full fidelity (both numbers come from the same
// `make bench` run on the same machine, so the ratio is
// noise-resistant in a way a live re-timing would not be). The <2%
// accuracy half of the budget is TestSampledFidelity's.
func TestRecordedSampledSpeedup(t *testing.T) {
	data, err := os.ReadFile("BENCH_harness.json")
	if err != nil {
		t.Fatalf("reading baseline: %v (run make bench)", err)
	}
	var rec harnessBench
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.SimThroughputNsPerOp == 0 || rec.SampledThroughputNsPerOp == 0 {
		t.Fatal("BENCH_harness.json lacks throughput baselines; run make bench")
	}
	speedup := float64(rec.SimThroughputNsPerOp) / float64(rec.SampledThroughputNsPerOp)
	t.Logf("recorded sampled speedup: %.1fx (full %d ns/op, sampled %d ns/op)",
		speedup, rec.SimThroughputNsPerOp, rec.SampledThroughputNsPerOp)
	if speedup < 10 {
		t.Errorf("sampled mode is %.1fx faster than full fidelity, want >= 10x", speedup)
	}
}

// TestWriteHarnessBench times serial vs pooled Figure 6 (quick) and
// writes BENCH_harness.json next to the module root. Gated behind
// WRITE_BENCH=1 (the Makefile `bench` target sets it) so the regular
// test suite stays fast.
func TestWriteHarnessBench(t *testing.T) {
	if os.Getenv("WRITE_BENCH") == "" {
		t.Skip("set WRITE_BENCH=1 to time the scheduler and write BENCH_harness.json")
	}
	e, err := harness.ExperimentByID("fig6")
	if err != nil {
		t.Fatal(err)
	}
	serial := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := e.Run(harness.ExpOptions{Quick: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Record the worker count the pooled runs actually use, not a guess
	// at it: NewScheduler(0) sizes to GOMAXPROCS at construction time.
	workers := harness.NewScheduler(0).Workers()
	pooled := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			opts := harness.ExpOptions{Quick: true, Runner: harness.NewScheduler(0)}
			if _, err := e.Run(opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	throughput := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := harness.Run(harness.Spec{Workload: "tomcatv", CPUs: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	sampled := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := harness.Run(harness.Spec{Workload: "tomcatv", CPUs: 1, Sampled: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	traceDecode := testing.Benchmark(BenchmarkTraceDecode)
	perSec := func(r testing.BenchmarkResult) float64 {
		return float64(fig6QuickSims) / (float64(r.NsPerOp()) / 1e9)
	}
	out := harnessBench{
		Host:                     benchhost.Current(),
		Benchmark:                "fig6-quick",
		Workers:                  workers,
		SimsPerOp:                fig6QuickSims,
		SerialNsPerOp:            serial.NsPerOp(),
		ParallelNsPerOp:          pooled.NsPerOp(),
		SerialSimsPerSec:         perSec(serial),
		ParallelSimsPerSec:       perSec(pooled),
		SimThroughputNsPerOp:     throughput.NsPerOp(),
		SampledThroughputNsPerOp: sampled.NsPerOp(),
		TraceDecodeNsPerRef:      float64(traceDecode.NsPerOp()) / benchTraceRefs,
	}
	if workers > 1 {
		out.Speedup = float64(serial.NsPerOp()) / float64(pooled.NsPerOp())
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_harness.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("serial %v/op, parallel %v/op, speedup %.2fx on %d workers; throughput full %v/op, sampled %v/op (%.1fx)",
		serial.NsPerOp(), pooled.NsPerOp(), out.Speedup, out.Workers,
		throughput.NsPerOp(), sampled.NsPerOp(),
		float64(throughput.NsPerOp())/float64(sampled.NsPerOp()))
}
