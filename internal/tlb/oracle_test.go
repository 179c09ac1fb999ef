package tlb

import (
	"math/rand"
	"testing"
)

// mapTLB is the TLB as it was before hashidx.LRU: an array-backed LRU
// list with its vpn→slot index in a Go map. It is kept here, test-only,
// as the oracle the TLB must agree with.
type mapTLB struct {
	index      map[uint64]int
	slots      []slot
	head, tail int
	free, used int

	Lookups, Misses uint64
}

// slot is one translation in the oracle's intrusive LRU list.
type slot struct {
	vpn        uint64
	prev, next int // list neighbours (-1 = none); next chains the free list
}

func newMapTLB(entries int) *mapTLB {
	t := &mapTLB{index: map[uint64]int{}, slots: make([]slot, entries)}
	t.reset()
	return t
}

func (t *mapTLB) reset() {
	for i := range t.slots {
		t.slots[i] = slot{prev: -1, next: i + 1}
	}
	t.slots[len(t.slots)-1].next = -1
	t.head, t.tail, t.free, t.used = -1, -1, 0, 0
}

func (t *mapTLB) unlink(i int) {
	s := &t.slots[i]
	if s.prev >= 0 {
		t.slots[s.prev].next = s.next
	} else {
		t.head = s.next
	}
	if s.next >= 0 {
		t.slots[s.next].prev = s.prev
	} else {
		t.tail = s.prev
	}
}

func (t *mapTLB) pushFront(i int) {
	s := &t.slots[i]
	s.prev, s.next = -1, t.head
	if t.head >= 0 {
		t.slots[t.head].prev = i
	}
	t.head = i
	if t.tail < 0 {
		t.tail = i
	}
}

func (t *mapTLB) Lookup(vpn uint64) bool {
	t.Lookups++
	if i, ok := t.index[vpn]; ok {
		if t.head != i {
			t.unlink(i)
			t.pushFront(i)
		}
		return true
	}
	t.Misses++
	var i int
	if t.free >= 0 {
		i = t.free
		t.free = t.slots[i].next
		t.used++
	} else {
		i = t.tail
		delete(t.index, t.slots[i].vpn)
		t.unlink(i)
	}
	t.slots[i].vpn = vpn
	t.pushFront(i)
	t.index[vpn] = i
	return false
}

func (t *mapTLB) Probe(vpn uint64) bool {
	_, ok := t.index[vpn]
	return ok
}

func (t *mapTLB) Invalidate(vpn uint64) {
	if i, ok := t.index[vpn]; ok {
		delete(t.index, vpn)
		t.unlink(i)
		t.slots[i].next = t.free
		t.free = i
		t.used--
	}
}

func (t *mapTLB) Flush() {
	clear(t.index)
	t.reset()
}

// TestTLBMatchesMapOracle runs seeded random Lookup/Probe/Invalidate/
// Flush sequences through the TLB and the map oracle and requires the
// same answers, counters and resident count after every step.
func TestTLBMatchesMapOracle(t *testing.T) {
	for _, entries := range []int{1, 2, 8, 64} {
		rng := rand.New(rand.NewSource(int64(entries)))
		tb, o := New(entries), newMapTLB(entries)
		universe := 3*entries + 2
		for step := 0; step < 20000; step++ {
			vpn := uint64(rng.Intn(universe)) * 0x1001
			switch op := rng.Intn(100); {
			case op < 70:
				if got, want := tb.Lookup(vpn), o.Lookup(vpn); got != want {
					t.Fatalf("entries %d step %d: Lookup(%d) = %v, want %v", entries, step, vpn, got, want)
				}
			case op < 85:
				if got, want := tb.Probe(vpn), o.Probe(vpn); got != want {
					t.Fatalf("entries %d step %d: Probe(%d) = %v, want %v", entries, step, vpn, got, want)
				}
			case op < 99:
				tb.Invalidate(vpn)
				o.Invalidate(vpn)
			default:
				tb.Flush()
				o.Flush()
			}
			if tb.Lookups != o.Lookups || tb.Misses != o.Misses || tb.Len() != o.used {
				t.Fatalf("entries %d step %d: lookups/misses/len %d/%d/%d, want %d/%d/%d", entries, step,
					tb.Lookups, tb.Misses, tb.Len(), o.Lookups, o.Misses, o.used)
			}
		}
	}
}
