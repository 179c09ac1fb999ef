package hashidx

import (
	"container/list"
	"math/rand"
	"slices"
	"testing"
)

// listLRU is an LRU set over a Go map and container/list, the form the
// shadow classifier had before LRU. It is the oracle LRU must agree with.
type listLRU struct {
	capacity int
	index    map[uint64]*list.Element
	order    *list.List // front = MRU
}

func (o *listLRU) Touch(key uint64) bool {
	if e, ok := o.index[key]; ok {
		o.order.MoveToFront(e)
		return true
	}
	if o.order.Len() >= o.capacity {
		lru := o.order.Back()
		delete(o.index, lru.Value.(uint64))
		o.order.Remove(lru)
	}
	o.index[key] = o.order.PushFront(key)
	return false
}

func (o *listLRU) Remove(key uint64) {
	if e, ok := o.index[key]; ok {
		delete(o.index, key)
		o.order.Remove(e)
	}
}

// keys lists the oracle's keys from MRU to LRU.
func (o *listLRU) keys() []uint64 {
	var out []uint64
	for e := o.order.Front(); e != nil; e = e.Next() {
		out = append(out, e.Value.(uint64))
	}
	return out
}

// order lists the resident keys from MRU to LRU.
func (l *LRU) order() []uint64 {
	var out []uint64
	for i := l.head; i >= 0; i = l.next[i] {
		out = append(out, l.keys[i])
	}
	return out
}

// TestLRUMatchesListOracle runs seeded random Touch/Contains/Remove/
// Clear sequences through LRU and the list oracle, over a key universe
// a few times the capacity so the LRU runs full and evicts, and
// requires the same answers, length and full MRU-to-LRU order after
// every step. Removals hit keys anywhere in the order.
func TestLRUMatchesListOracle(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, 64} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		l := NewLRU(capacity)
		o := &listLRU{capacity: capacity, index: map[uint64]*list.Element{}, order: list.New()}
		universe := 3*capacity + 1
		for step := 0; step < 20000; step++ {
			key := uint64(rng.Intn(universe)) << 7
			switch op := rng.Intn(100); {
			case op < 60:
				if got, want := l.Touch(key), o.Touch(key); got != want {
					t.Fatalf("capacity %d step %d: Touch(%#x) = %v, want %v", capacity, step, key, got, want)
				}
			case op < 75:
				if _, want := o.index[key]; l.Contains(key) != want {
					t.Fatalf("capacity %d step %d: Contains(%#x) = %v, want %v", capacity, step, key, !want, want)
				}
			case op < 99:
				l.Remove(key)
				o.Remove(key)
			default:
				l.Clear()
				o.index, o.order = map[uint64]*list.Element{}, list.New()
			}
			if l.Len() != o.order.Len() {
				t.Fatalf("capacity %d step %d: Len = %d, want %d", capacity, step, l.Len(), o.order.Len())
			}
			if got, want := l.order(), o.keys(); !slices.Equal(got, want) {
				t.Fatalf("capacity %d step %d: LRU order %v, want %v", capacity, step, got, want)
			}
		}
	}
}
