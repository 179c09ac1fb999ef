package hashidx

import "math/bits"

// Index maps uint64 keys to int32 values. The zero value is not usable;
// create one with New. Not safe for concurrent use.
type Index struct {
	cells []cell
	mask  uint64 // len(cells) - 1; the table size is a power of two
	shift uint   // 64 - log2(len(cells)), for the multiplicative hash
	n     int
}

// cell is one table slot; val < 0 marks it empty.
type cell struct {
	key uint64
	val int32
}

// New creates an index that holds up to capacity keys without growing.
// The table is kept at most half full, so probe sequences stay short.
func New(capacity int) *Index {
	ix := &Index{}
	ix.alloc(max(2*capacity, 8))
	return ix
}

// alloc installs an empty table of at least size cells.
func (ix *Index) alloc(size int) {
	logSize := bits.Len(uint(size - 1))
	ix.cells = make([]cell, 1<<logSize)
	ix.mask = uint64(len(ix.cells) - 1)
	ix.shift = uint(64 - logSize)
	ix.n = 0
	for i := range ix.cells {
		ix.cells[i].val = -1
	}
}

// home returns key's preferred cell: the top bits of key times 2^64/φ.
func (ix *Index) home(key uint64) uint64 {
	return (key * 0x9e3779b97f4a7c15) >> ix.shift
}

// Get returns key's value; ok is false when key is absent.
func (ix *Index) Get(key uint64) (val int32, ok bool) {
	for i := ix.home(key); ; i = (i + 1) & ix.mask {
		c := &ix.cells[i]
		if c.val < 0 {
			return 0, false
		}
		if c.key == key {
			return c.val, true
		}
	}
}

// Put sets key's value, inserting key if absent. val must be
// non-negative.
func (ix *Index) Put(key uint64, val int32) {
	if val < 0 {
		panic("hashidx: negative value")
	}
	for i := ix.home(key); ; i = (i + 1) & ix.mask {
		c := &ix.cells[i]
		if c.val < 0 {
			if 2*(ix.n+1) > len(ix.cells) {
				ix.grow()
				ix.Put(key, val)
				return
			}
			c.key, c.val = key, val
			ix.n++
			return
		}
		if c.key == key {
			c.val = val
			return
		}
	}
}

// grow doubles the table and reinserts every key.
func (ix *Index) grow() {
	old := ix.cells
	ix.alloc(2 * len(old))
	for _, c := range old {
		if c.val >= 0 {
			ix.Put(c.key, c.val)
		}
	}
}

// Delete removes key and returns the value it held; ok is false when
// key was absent. The cells after it in its probe run shift back into
// the hole, so lookups never need tombstones.
func (ix *Index) Delete(key uint64) (val int32, ok bool) {
	i := ix.home(key)
	for {
		c := &ix.cells[i]
		if c.val < 0 {
			return 0, false
		}
		if c.key == key {
			break
		}
		i = (i + 1) & ix.mask
	}
	val, hole := ix.cells[i].val, i
	for j := (i + 1) & ix.mask; ix.cells[j].val >= 0; j = (j + 1) & ix.mask {
		// The cell at j may fill the hole only if its home does not lie
		// cyclically in (hole, j]: otherwise a lookup for it, starting at
		// its home, would no longer pass the hole to reach it.
		if (j-ix.home(ix.cells[j].key))&ix.mask >= (j-hole)&ix.mask {
			ix.cells[hole] = ix.cells[j]
			hole = j
		}
	}
	ix.cells[hole].val = -1
	ix.n--
	return val, true
}

// Len returns the number of keys held.
func (ix *Index) Len() int { return ix.n }

// Clear removes every key, keeping the table's size.
func (ix *Index) Clear() {
	if ix.n == 0 {
		return
	}
	for i := range ix.cells {
		ix.cells[i].val = -1
	}
	ix.n = 0
}
