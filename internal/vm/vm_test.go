package vm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/memory"
)

const pageSize = 4096

func space(policy Policy, frames, colors int) *AddressSpace {
	return NewAddressSpace(pageSize, memory.New(frames, colors), policy)
}

func TestPageColoringConsecutivePages(t *testing.T) {
	as := space(PageColoring{Colors: 8}, 64, 8)
	for vpn := uint64(0); vpn < 16; vpn++ {
		_, faulted, err := as.Translate(vpn*pageSize, 0)
		if err != nil || !faulted {
			t.Fatalf("vpn %d: faulted=%v err=%v", vpn, faulted, err)
		}
		color, _ := as.ColorOf(vpn)
		if color != int(vpn%8) {
			t.Errorf("vpn %d color = %d, want %d", vpn, color, vpn%8)
		}
	}
}

func TestPageColoringConflictSpacing(t *testing.T) {
	// §2.1: under page coloring, conflicts occur only between pages whose
	// virtual addresses differ by a multiple of the cache span.
	p := PageColoring{Colors: 16}
	for vpn := uint64(0); vpn < 100; vpn++ {
		if p.PreferredColor(vpn, 0) != p.PreferredColor(vpn+16, 0) {
			t.Errorf("vpn %d and vpn+16 should share a color", vpn)
		}
	}
}

func TestBinHoppingCyclesInFaultOrder(t *testing.T) {
	as := space(&BinHopping{Colors: 4}, 64, 4)
	// Fault pages in a scattered order; colors must follow fault order,
	// not address order.
	order := []uint64{10, 3, 77, 4, 1}
	for i, vpn := range order {
		as.Translate(vpn*pageSize, 0)
		color, _ := as.ColorOf(vpn)
		if color != i%4 {
			t.Errorf("fault #%d (vpn %d) color = %d, want %d", i, vpn, color, i%4)
		}
	}
}

func TestTranslateIsStable(t *testing.T) {
	as := space(PageColoring{Colors: 8}, 64, 8)
	p1, faulted1, _ := as.Translate(5*pageSize+100, 0)
	p2, faulted2, _ := as.Translate(5*pageSize+200, 1)
	if !faulted1 || faulted2 {
		t.Errorf("fault flags = %v,%v; want true,false", faulted1, faulted2)
	}
	if p1-100 != p2-200 {
		t.Error("same page translated to different frames")
	}
	if as.Faults != 1 {
		t.Errorf("Faults = %d, want 1", as.Faults)
	}
}

func TestOffsetPreserved(t *testing.T) {
	as := space(PageColoring{Colors: 8}, 64, 8)
	f := func(vaddr uint64) bool {
		vaddr %= 64 * pageSize
		paddr, _, err := as.Translate(vaddr, 0)
		return err == nil && paddr%pageSize == vaddr%pageSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAdviseOverridesPolicy(t *testing.T) {
	as := space(PageColoring{Colors: 8}, 64, 8)
	as.Advise(map[uint64]int{3: 7}) // vpn 3 would naturally get color 3
	as.Translate(3*pageSize, 0)
	color, _ := as.ColorOf(3)
	if color != 7 {
		t.Errorf("hinted color = %d, want 7", color)
	}
	if as.HintedFaults != 1 || as.HonoredHints != 1 {
		t.Errorf("hint counters = %d/%d, want 1/1", as.HintedFaults, as.HonoredHints)
	}
}

func TestHintIsOnlyAHint(t *testing.T) {
	// Exhaust color 2, then hint for it: the fault must still succeed
	// (memory pressure fallback) but the hint goes unhonored (§5 step 3).
	as := space(PageColoring{Colors: 4}, 8, 4) // 2 frames per color
	as.Advise(map[uint64]int{100: 2, 101: 2, 102: 2})
	for _, vpn := range []uint64{100, 101, 102} {
		if _, _, err := as.Translate(vpn*pageSize, 0); err != nil {
			t.Fatal(err)
		}
	}
	c100, _ := as.ColorOf(100)
	c101, _ := as.ColorOf(101)
	c102, _ := as.ColorOf(102)
	if c100 != 2 || c101 != 2 {
		t.Errorf("first two hinted pages: colors %d,%d, want 2,2", c100, c101)
	}
	if c102 == 2 {
		t.Error("third hinted page got color 2, pool should be empty")
	}
	if as.HonoredHints != 2 {
		t.Errorf("HonoredHints = %d, want 2", as.HonoredHints)
	}
}

func TestHintsDoNotAffectMappedPages(t *testing.T) {
	as := space(PageColoring{Colors: 8}, 64, 8)
	as.Translate(0, 0)
	before, _ := as.ColorOf(0)
	as.Advise(map[uint64]int{0: (before + 1) % 8})
	after, _ := as.ColorOf(0)
	if before != after {
		t.Error("Advise recolored an already-mapped page")
	}
}

func TestTouchInOrderEmulatesColoringOnBinHopping(t *testing.T) {
	// The paper's Digital UNIX trick: with bin hopping, touching pages in
	// ascending VPN order yields page coloring's assignment.
	as := space(&BinHopping{Colors: 8}, 64, 8)
	vpns := make([]uint64, 16)
	for i := range vpns {
		vpns[i] = uint64(i)
	}
	faults, err := as.TouchInOrder(vpns, 0)
	if err != nil || faults != 16 {
		t.Fatalf("TouchInOrder = (%d,%v)", faults, err)
	}
	for vpn := uint64(0); vpn < 16; vpn++ {
		color, _ := as.ColorOf(vpn)
		if color != int(vpn%8) {
			t.Errorf("vpn %d color = %d, want %d", vpn, color, vpn%8)
		}
	}
	// Re-touching faults nothing.
	faults, _ = as.TouchInOrder(vpns, 0)
	if faults != 0 {
		t.Errorf("second TouchInOrder faulted %d pages, want 0", faults)
	}
}

func TestOutOfMemorySurfaceError(t *testing.T) {
	as := space(PageColoring{Colors: 2}, 2, 2)
	as.Translate(0, 0)
	as.Translate(pageSize, 0)
	if _, _, err := as.Translate(2*pageSize, 0); err == nil {
		t.Error("expected out-of-memory error")
	}
}

func TestColorOfUnmapped(t *testing.T) {
	as := space(PageColoring{Colors: 8}, 64, 8)
	if _, ok := as.ColorOf(42); ok {
		t.Error("ColorOf reported a color for an unmapped page")
	}
}

func TestMappedPagesCount(t *testing.T) {
	as := space(PageColoring{Colors: 8}, 64, 8)
	for vpn := uint64(0); vpn < 10; vpn++ {
		as.Touch(vpn, 0)
	}
	if as.MappedPages() != 10 {
		t.Errorf("MappedPages = %d, want 10", as.MappedPages())
	}
}

func TestPolicyNames(t *testing.T) {
	if (PageColoring{}).Name() != "page-coloring" {
		t.Error("PageColoring name")
	}
	if (&BinHopping{}).Name() != "bin-hopping" {
		t.Error("BinHopping name")
	}
}

func TestTranslateVPNDoesNotAllocate(t *testing.T) {
	as := space(PageColoring{Colors: 8}, 64, 8)
	for vpn := uint64(0); vpn < 16; vpn++ {
		if _, _, err := as.TranslateVPN(vpn, 0); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		for vpn := uint64(0); vpn < 16; vpn++ {
			as.TranslateVPN(vpn, 0)
			as.ReverseVAddr(vpn * pageSize)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per run, want 0", allocs)
	}
}

func BenchmarkTranslateVPN(b *testing.B) {
	as := space(PageColoring{Colors: 8}, 4096, 8)
	rng := rand.New(rand.NewSource(7))
	vpns := make([]uint64, 4096)
	for i := range vpns {
		vpns[i] = uint64(rng.Intn(2048))
		if _, _, err := as.TranslateVPN(vpns[i], 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		as.TranslateVPN(vpns[i&4095], 0)
	}
}
