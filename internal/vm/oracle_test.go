package vm

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/memory"
)

// mapSpace is the translate/reverse/recolor path of AddressSpace as it
// was before the open-addressing page table: vpn→frame and frame→vpn in
// Go maps. It is kept here, test-only, as the oracle AddressSpace must
// agree with; it draws frames from its own allocator so both sides see
// the same allocation sequence.
type mapSpace struct {
	alloc  *memory.Allocator
	policy Policy
	pages  map[uint64]uint64
	frames map[uint64]uint64
	faults uint64
}

func (s *mapSpace) Translate(vaddr uint64, cpu int) (uint64, bool, error) {
	vpn := vaddr / pageSize
	frame, ok := s.pages[vpn]
	if !ok {
		s.faults++
		f, _, err := s.alloc.AllocFor(0, s.policy.PreferredColor(vpn, cpu))
		if err != nil {
			return 0, true, err
		}
		frame = f
		s.pages[vpn], s.frames[frame] = frame, vpn
		return frame*pageSize + vaddr%pageSize, true, nil
	}
	return frame*pageSize + vaddr%pageSize, false, nil
}

func (s *mapSpace) TranslateNoFault(vaddr uint64) (uint64, bool) {
	frame, ok := s.pages[vaddr/pageSize]
	return frame*pageSize + vaddr%pageSize, ok
}

func (s *mapSpace) ReverseVAddr(paddr uint64) (uint64, bool) {
	vpn, ok := s.frames[paddr/pageSize]
	return vpn*pageSize + paddr%pageSize, ok
}

func (s *mapSpace) Recolor(vpn uint64, color int) error {
	old, ok := s.pages[vpn]
	if !ok {
		return errUnmapped
	}
	f, _, err := s.alloc.AllocFor(0, color)
	if err != nil {
		return err
	}
	delete(s.frames, old)
	s.alloc.Release(old)
	s.pages[vpn], s.frames[f] = f, vpn
	return nil
}

var errUnmapped = errors.New("unmapped")

// TestAddressSpaceMatchesMapOracle runs seeded random Translate/
// TranslateNoFault/ReverseVAddr/Recolor sequences through AddressSpace
// and the map oracle, and requires identical addresses, fault flags, error-ness, fault counts
// and resident page counts after every step. With 40 pages the
// footprint fits the 48 frames and recolorings keep moving pages; with
// 64 memory runs out and faults and recolorings fail.
func TestAddressSpaceMatchesMapOracle(t *testing.T) {
	const frames, colors = 48, 4
	for _, tc := range []struct {
		name   string
		pages  int
		policy func() Policy
	}{
		{"page-coloring", 40, func() Policy { return PageColoring{Colors: colors} }},
		{"bin-hopping", 40, func() Policy { return &BinHopping{Colors: colors} }},
		{"out-of-memory", 64, func() Policy { return PageColoring{Colors: colors} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			as := space(tc.policy(), frames, colors)
			o := &mapSpace{alloc: memory.New(frames, colors), policy: tc.policy(),
				pages: map[uint64]uint64{}, frames: map[uint64]uint64{}}
			for step := 0; step < 20000; step++ {
				vaddr := uint64(rng.Intn(tc.pages))*pageSize*3 + uint64(rng.Intn(pageSize))
				switch op := rng.Intn(100); {
				case op < 40:
					cpu := rng.Intn(4)
					pa, f, err := as.Translate(vaddr, cpu)
					wpa, wf, werr := o.Translate(vaddr, cpu)
					if pa != wpa || f != wf || (err != nil) != (werr != nil) {
						t.Fatalf("step %d: Translate(%#x) = %#x,%v,%v, want %#x,%v,%v", step, vaddr, pa, f, err, wpa, wf, werr)
					}
				case op < 60:
					pa, ok := as.TranslateNoFault(vaddr)
					wpa, wok := o.TranslateNoFault(vaddr)
					if ok != wok || (ok && pa != wpa) {
						t.Fatalf("step %d: TranslateNoFault(%#x) = %#x,%v, want %#x,%v", step, vaddr, pa, ok, wpa, wok)
					}
				case op < 85:
					paddr := uint64(rng.Intn(frames+8))*pageSize + uint64(rng.Intn(pageSize))
					va, ok := as.ReverseVAddr(paddr)
					wva, wok := o.ReverseVAddr(paddr)
					if ok != wok || (ok && va != wva) {
						t.Fatalf("step %d: ReverseVAddr(%#x) = %#x,%v, want %#x,%v", step, paddr, va, ok, wva, wok)
					}
				default:
					vpn, color := vaddr/pageSize, rng.Intn(colors)
					err, werr := as.Recolor(vpn, color), o.Recolor(vpn, color)
					if (err != nil) != (werr != nil) {
						t.Fatalf("step %d: Recolor(%d, %d) = %v, want %v", step, vpn, color, err, werr)
					}
				}
				if as.Faults != o.faults || as.MappedPages() != len(o.pages) {
					t.Fatalf("step %d: faults/pages %d/%d, want %d/%d", step, as.Faults, as.MappedPages(), o.faults, len(o.pages))
				}
			}
		})
	}
}
