package tlb

import (
	"math/rand"
	"testing"
)

func TestMissThenHit(t *testing.T) {
	tb := New(4)
	if tb.Lookup(10) {
		t.Error("cold lookup hit")
	}
	if !tb.Lookup(10) {
		t.Error("second lookup missed")
	}
	if tb.Lookups != 2 || tb.Misses != 1 {
		t.Errorf("counters %d/%d, want 2/1", tb.Misses, tb.Lookups)
	}
}

func TestLRUEviction(t *testing.T) {
	tb := New(2)
	tb.Lookup(1)
	tb.Lookup(2)
	tb.Lookup(1) // 2 becomes LRU
	tb.Lookup(3) // evicts 2
	if !tb.Probe(1) || tb.Probe(2) || !tb.Probe(3) {
		t.Errorf("resident set wrong: 1=%v 2=%v 3=%v", tb.Probe(1), tb.Probe(2), tb.Probe(3))
	}
}

func TestProbeDoesNotRefill(t *testing.T) {
	tb := New(4)
	if tb.Probe(7) {
		t.Error("probe of absent vpn returned true")
	}
	if tb.Len() != 0 {
		t.Error("probe installed a translation")
	}
	if tb.Misses != 0 {
		t.Error("probe counted as miss")
	}
}

func TestFlush(t *testing.T) {
	tb := New(4)
	tb.Lookup(1)
	tb.Lookup(2)
	tb.Flush()
	if tb.Len() != 0 {
		t.Error("flush left entries")
	}
	if tb.Lookup(1) {
		t.Error("hit after flush")
	}
}

func TestMissRate(t *testing.T) {
	tb := New(8)
	if tb.MissRate() != 0 {
		t.Error("empty TLB should report 0 miss rate")
	}
	tb.Lookup(1)
	tb.Lookup(1)
	tb.Lookup(1)
	tb.Lookup(2)
	if got := tb.MissRate(); got != 0.5 {
		t.Errorf("MissRate = %v, want 0.5", got)
	}
}

func TestCapacityBound(t *testing.T) {
	tb := New(16)
	for v := uint64(0); v < 100; v++ {
		tb.Lookup(v)
	}
	if tb.Len() != 16 {
		t.Errorf("Len = %d, want 16", tb.Len())
	}
	// The 16 most recent should be resident.
	for v := uint64(84); v < 100; v++ {
		if !tb.Probe(v) {
			t.Errorf("vpn %d should be resident", v)
		}
	}
}

func TestLookupDoesNotAllocate(t *testing.T) {
	tb := New(8)
	allocs := testing.AllocsPerRun(100, func() {
		for vpn := uint64(0); vpn < 12; vpn++ {
			tb.Lookup(vpn)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per run, want 0", allocs)
	}
}

func BenchmarkTLBLookup(b *testing.B) {
	tb := New(64)
	rng := rand.New(rand.NewSource(7))
	vpns := make([]uint64, 4096)
	for i := range vpns {
		vpns[i] = uint64(rng.Intn(96))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Lookup(vpns[i&4095])
	}
}
