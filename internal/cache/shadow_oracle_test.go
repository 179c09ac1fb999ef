package cache

import (
	"container/list"
	"math/rand"
	"testing"
)

// listShadow is the shadow classifier as it was before the array-backed
// LRU: a Go map onto container/list elements. It is kept here,
// test-only, as the oracle Shadow must agree with.
type listShadow struct {
	capacity int
	lineSize uint64
	index    map[uint64]*list.Element
	order    *list.List // front = MRU
}

func newListShadow(capacity, lineSize int) *listShadow {
	return &listShadow{capacity: capacity, lineSize: uint64(lineSize),
		index: map[uint64]*list.Element{}, order: list.New()}
}

func (s *listShadow) Access(addr uint64) bool {
	la := addr &^ (s.lineSize - 1)
	if e, ok := s.index[la]; ok {
		s.order.MoveToFront(e)
		return true
	}
	if s.order.Len() >= s.capacity {
		lru := s.order.Back()
		delete(s.index, lru.Value.(uint64))
		s.order.Remove(lru)
	}
	s.index[la] = s.order.PushFront(la)
	return false
}

func (s *listShadow) Remove(addr uint64) {
	la := addr &^ (s.lineSize - 1)
	if e, ok := s.index[la]; ok {
		delete(s.index, la)
		s.order.Remove(e)
	}
}

// TestShadowMatchesListOracle runs seeded random Access/Remove
// sequences through Shadow and the list oracle, with a footprint a few
// times the capacity so the shadow runs full and evicts, and requires
// the same answers and length after every step. Removals hit lines
// anywhere in the order, including the middle. hashidx's
// TestLRUMatchesListOracle checks the full LRU order itself.
func TestShadowMatchesListOracle(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, 64} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		s, o := NewShadow(capacity, 128), newListShadow(capacity, 128)
		universe := 3*capacity + 1
		for step := 0; step < 20000; step++ {
			addr := uint64(rng.Intn(universe))<<7 | uint64(rng.Intn(128))
			if rng.Intn(4) == 0 {
				s.Remove(addr)
				o.Remove(addr)
			} else if got, want := s.Access(addr), o.Access(addr); got != want {
				t.Fatalf("capacity %d step %d: Access(%#x) = %v, want %v", capacity, step, addr, got, want)
			}
			if s.Len() != o.order.Len() {
				t.Fatalf("capacity %d step %d: Len = %d, want %d", capacity, step, s.Len(), o.order.Len())
			}
		}
	}
}
