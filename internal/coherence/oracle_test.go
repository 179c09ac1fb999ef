package coherence

import (
	"math/rand"
	"reflect"
	"testing"
)

// mapDirectory is the directory as it was before the frame-dense
// layout: one heap-allocated lineState per touched line, found through
// a Go map. It is kept here, test-only, as the oracle the dense
// Directory must agree with exactly.
type mapDirectory struct {
	ncpu     int
	lineSize uint64
	lines    map[uint64]*mapLine
}

type mapLine struct {
	owners     uint64
	dirtyOwner int8
	wordWriter []int8
	lostTo     []int8
	held       uint64
}

func newMapDirectory(ncpu, lineSize int) *mapDirectory {
	return &mapDirectory{ncpu: ncpu, lineSize: uint64(lineSize), lines: map[uint64]*mapLine{}}
}

func (d *mapDirectory) lineOf(addr uint64) uint64 { return addr &^ (d.lineSize - 1) }

func (d *mapDirectory) state(la uint64) *mapLine {
	s, ok := d.lines[la]
	if !ok {
		s = &mapLine{dirtyOwner: -1, wordWriter: make([]int8, d.lineSize/wordSize), lostTo: make([]int8, d.ncpu)}
		for i := range s.wordWriter {
			s.wordWriter[i] = -1
		}
		for i := range s.lostTo {
			s.lostTo[i] = -1
		}
		d.lines[la] = s
	}
	return s
}

func (d *mapDirectory) classifyMiss(s *mapLine, cpu, word int) Class {
	if s.held == 0 && s.owners == 0 {
		return Cold
	}
	if s.held&(1<<uint(cpu)) == 0 {
		if w := s.wordWriter[word]; w >= 0 && int(w) != cpu {
			return TrueShare
		}
		return Cold
	}
	if inv := s.lostTo[cpu]; inv >= 0 {
		if w := s.wordWriter[word]; w >= 0 && int(w) != cpu {
			return TrueShare
		}
		return FalseShare
	}
	return Replacement
}

func (d *mapDirectory) Access(cpu int, addr uint64, write bool) Outcome {
	s := d.state(d.lineOf(addr))
	word := int((addr & (d.lineSize - 1)) / wordSize)
	bit := uint64(1) << uint(cpu)
	out := Outcome{Downgraded: -1}
	if s.owners&bit != 0 {
		out.Class = Hit
		if write && s.owners != bit {
			out.Upgrade = true
			out.Invalidated = d.invalidateOthers(s, cpu)
		}
	} else {
		out.Class = d.classifyMiss(s, cpu, word)
		if s.dirtyOwner >= 0 && int(s.dirtyOwner) != cpu {
			out.DirtyRemote = true
		}
		if write {
			out.Invalidated = d.invalidateOthers(s, cpu)
		} else if s.dirtyOwner >= 0 && int(s.dirtyOwner) != cpu {
			out.Downgraded = int(s.dirtyOwner)
			s.dirtyOwner = -1
		}
		s.owners |= bit
		s.held |= bit
		s.lostTo[cpu] = -1
	}
	if write {
		s.dirtyOwner = int8(cpu)
		s.wordWriter[word] = int8(cpu)
	}
	return out
}

func (d *mapDirectory) invalidateOthers(s *mapLine, cpu int) []int {
	var out []int
	for p := 0; p < d.ncpu; p++ {
		if p != cpu && s.owners&(1<<uint(p)) != 0 {
			s.owners &^= 1 << uint(p)
			s.lostTo[p] = int8(cpu)
			out = append(out, p)
		}
	}
	return out
}

func (d *mapDirectory) Evict(cpu int, addr uint64) {
	s, ok := d.lines[d.lineOf(addr)]
	if !ok {
		return
	}
	bit := uint64(1) << uint(cpu)
	if s.owners&bit == 0 {
		return
	}
	s.owners &^= bit
	s.lostTo[cpu] = -1
	if int(s.dirtyOwner) == cpu {
		s.dirtyOwner = -1
	}
}

func (d *mapDirectory) Holders(addr uint64) int {
	s, ok := d.lines[d.lineOf(addr)]
	if !ok {
		return 0
	}
	n := 0
	for b := s.owners; b != 0; b &= b - 1 {
		n++
	}
	return n
}

func (d *mapDirectory) Forget(addr uint64) { delete(d.lines, d.lineOf(addr)) }

func (d *mapDirectory) Reset() { d.lines = map[uint64]*mapLine{} }

// TestDirectoryMatchesMapOracle runs seeded random Access/Evict/Forget/
// Holders/Reset sequences through the dense Directory and the map
// oracle and requires identical outcomes after every step, over unit
// counts 1-16 and both LLC line sizes. Addresses span a few frames, so
// lines are shared, invalidated, evicted and forgotten many times, and
// start past frame 0 so the chunk table grows mid-run.
func TestDirectoryMatchesMapOracle(t *testing.T) {
	for ncpu := 1; ncpu <= 16; ncpu++ {
		for _, lineSize := range []int{64, 128} {
			rng := rand.New(rand.NewSource(int64(ncpu*1000 + lineSize)))
			d, o := New(ncpu, lineSize), newMapDirectory(ncpu, lineSize)
			for step := 0; step < 6000; step++ {
				cpu := rng.Intn(ncpu)
				addr := uint64(3+rng.Intn(4))<<12 | uint64(rng.Intn(6*lineSize))
				switch op := rng.Intn(100); {
				case op < 70:
					write := rng.Intn(3) == 0
					got, want := d.Access(cpu, addr, write), o.Access(cpu, addr, write)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("ncpu %d line %d step %d: Access(%d, %#x, %v) = %+v, want %+v",
							ncpu, lineSize, step, cpu, addr, write, got, want)
					}
				case op < 88:
					d.Evict(cpu, addr)
					o.Evict(cpu, addr)
				case op < 94:
					d.Forget(addr)
					o.Forget(addr)
				case op < 99:
				default:
					d.Reset()
					o.Reset()
				}
				if got, want := d.Holders(addr), o.Holders(addr); got != want {
					t.Fatalf("ncpu %d line %d step %d: Holders(%#x) = %d, want %d", ncpu, lineSize, step, addr, got, want)
				}
			}
		}
	}
}
