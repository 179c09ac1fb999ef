package hashidx

// LRU is a fixed-capacity set of uint64 keys kept in least-recently-used
// order. The order is an intrusive doubly linked list over preallocated
// slots recycled through a free list, and an Index finds a key's slot,
// so no operation allocates. Not safe for concurrent use.
type LRU struct {
	index *Index   // key -> slot
	keys  []uint64 // slot -> resident key
	// prev/next link the slots from MRU to LRU; next also chains the
	// free list. -1 means none.
	prev, next []int32
	head, tail int32 // MRU and LRU slots, -1 when empty
	free       int32 // first free slot, -1 when full
	n          int
}

// NewLRU creates an empty LRU holding up to capacity keys.
func NewLRU(capacity int) *LRU {
	if capacity <= 0 {
		panic("hashidx: LRU capacity must be positive")
	}
	l := &LRU{
		index: New(capacity),
		keys:  make([]uint64, capacity),
		prev:  make([]int32, capacity),
		next:  make([]int32, capacity),
	}
	l.reset()
	return l
}

// reset chains every slot onto the free list.
func (l *LRU) reset() {
	for i := range l.next {
		l.next[i] = int32(i + 1)
	}
	l.next[len(l.next)-1] = -1
	l.head, l.tail, l.free, l.n = -1, -1, 0, 0
}

// unlink removes slot i from the LRU list.
func (l *LRU) unlink(i int32) {
	p, n := l.prev[i], l.next[i]
	if p >= 0 {
		l.next[p] = n
	} else {
		l.head = n
	}
	if n >= 0 {
		l.prev[n] = p
	} else {
		l.tail = p
	}
}

// pushFront makes slot i the MRU entry.
func (l *LRU) pushFront(i int32) {
	l.prev[i], l.next[i] = -1, l.head
	if l.head >= 0 {
		l.prev[l.head] = i
	}
	l.head = i
	if l.tail < 0 {
		l.tail = i
	}
}

// Touch makes key the most recently used entry and reports whether it
// was already present. An absent key is inserted, evicting the least
// recently used key when the LRU is full.
func (l *LRU) Touch(key uint64) bool {
	// MRU fast path: a hit on the front entry needs no reordering and no
	// index probe, the common case for page- and line-local streams.
	if l.head >= 0 && l.keys[l.head] == key {
		return true
	}
	if i, ok := l.index.Get(key); ok {
		l.unlink(i)
		l.pushFront(i)
		return true
	}
	var i int32
	if l.free >= 0 {
		i = l.free
		l.free = l.next[i]
		l.n++
	} else {
		i = l.tail // evict LRU
		l.index.Delete(l.keys[i])
		l.unlink(i)
	}
	l.keys[i] = key
	l.pushFront(i)
	l.index.Put(key, i)
	return false
}

// Contains reports whether key is present without touching the order.
func (l *LRU) Contains(key uint64) bool {
	_, ok := l.index.Get(key)
	return ok
}

// Remove drops key if present.
func (l *LRU) Remove(key uint64) {
	if i, ok := l.index.Delete(key); ok {
		l.unlink(i)
		l.next[i] = l.free
		l.free = i
		l.n--
	}
}

// Clear removes every key.
func (l *LRU) Clear() {
	l.index.Clear()
	l.reset()
}

// Len returns the number of resident keys.
func (l *LRU) Len() int { return l.n }
