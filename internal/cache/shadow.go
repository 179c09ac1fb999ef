package cache

import "repro/internal/hashidx"

// Shadow is a fully-associative LRU cache of the same capacity (in lines)
// as a real cache. A replacement miss in the real cache that would have
// hit in the shadow is a conflict miss (caused by limited associativity);
// one that also misses in the shadow is a capacity miss. This is the
// standard classification the paper's "replacement = capacity + conflict"
// breakdown relies on (§4.1).
//
// The resident lines live in a fixed-capacity hashidx.LRU (the TLB's
// structure), so an access allocates nothing.
type Shadow struct {
	lineSize uint64
	lru      *hashidx.LRU // resident line addresses
}

// NewShadow creates a shadow cache holding capacity lines of lineSize
// bytes.
func NewShadow(capacity, lineSize int) *Shadow {
	if capacity <= 0 {
		panic("cache: shadow capacity must be positive")
	}
	return &Shadow{lineSize: uint64(lineSize), lru: hashidx.NewLRU(capacity)}
}

// Access touches addr's line and reports whether it was present.
func (s *Shadow) Access(addr uint64) bool {
	return s.lru.Touch(addr &^ (s.lineSize - 1))
}

// Remove drops addr's line (coherence invalidation must be mirrored here,
// otherwise a later coherence re-fetch would be misclassified).
func (s *Shadow) Remove(addr uint64) {
	s.lru.Remove(addr &^ (s.lineSize - 1))
}

// Len returns the number of resident lines.
func (s *Shadow) Len() int { return s.lru.Len() }
