package coherence

import (
	"fmt"
	"math/bits"
)

// Class classifies the outcome of a memory access at the external-cache
// level.
type Class uint8

const (
	// Hit: the line was present in the requesting CPU's external cache.
	Hit Class = iota
	// Cold: first access to the line by any CPU.
	Cold
	// TrueShare: miss caused by invalidation, and the word accessed was
	// written by another CPU — genuine communication.
	TrueShare
	// FalseShare: miss caused by invalidation of a line whose accessed
	// word was not written by another CPU — an artifact of line size.
	FalseShare
	// Replacement: the CPU once held the line and lost it to its own
	// eviction; split into conflict/capacity by the caller's shadow cache.
	Replacement
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Hit:
		return "hit"
	case Cold:
		return "cold"
	case TrueShare:
		return "true-share"
	case FalseShare:
		return "false-share"
	case Replacement:
		return "replacement"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

const wordSize = 8 // classification granularity (double-precision words)

// chunkShift is log2 of the physical span one chunk of line state
// covers: one 4 KiB frame, so a chunk is allocated on the first touch
// of its frame and sparse footprints stay cheap.
const chunkShift = 12

// chunk holds the state of every line in one frame as flat arrays, line
// l at index l (scaled by words or units per line for the last two). A
// line no CPU has touched is in the same state as a fresh line:
//
//   - owners[l] is the bitmask of units holding the line;
//   - held[l] records that a unit has held the line at some point, to
//     distinguish Replacement from Cold per unit: a first touch by a
//     unit of a line another unit already fetched counts as a
//     replacement-class (shared-data distribution) miss only when the
//     requester lost it; an outright first touch with no invalidation
//     is Cold for that unit;
//   - dirtyOwner[l] is the unit holding it modified, -1 if none;
//   - wordWriter[l*words+w] is the unit that last wrote word w, -1 if
//     never;
//   - lostTo[l*units+u] is the unit whose write invalidated u's copy,
//     -1 when the copy was lost to u's own eviction (or never held).
type chunk struct {
	owners, held                   []uint64
	dirtyOwner, wordWriter, lostTo []int8
}

// Outcome describes what the protocol did for one access.
type Outcome struct {
	Class       Class
	DirtyRemote bool  // data supplied by another CPU's cache (higher latency)
	Invalidated []int // CPUs whose copies were invalidated (write path)
	Upgrade     bool  // write hit on a shared line: ownership-only bus transaction
	// Downgraded is the CPU whose dirty copy was flushed to memory to
	// supply a read (the line stays cached there in shared, clean
	// state); -1 when no downgrade happened. The simulator must clean
	// that CPU's cached line, or its eventual eviction would charge a
	// second writeback for data memory already holds.
	Downgraded int
}

// Directory tracks all lines in a table of per-frame chunks indexed by
// paddr >> 12. The table grows to the highest frame touched, so
// addresses must lie in the simulated physical memory. Not safe for
// concurrent use; the simulator is single-threaded event-driven.
type Directory struct {
	ncpu       int
	lineMask   uint64 // line size - 1; line size is a validated power of two
	lineShift  uint   // log2(line size)
	chunkShift uint   // log2(bytes per chunk)
	lines      int    // lines per chunk
	words      int    // words per line
	chunks     []*chunk

	// scratch backing Outcome.Invalidated
	invalScratch []int
}

// New creates a directory for ncpu CPUs and the given external-cache line
// size in bytes. No line state is allocated until a frame is touched.
func New(ncpu, lineSize int) *Directory {
	if ncpu <= 0 || ncpu > 64 {
		panic(fmt.Sprintf("coherence: ncpu %d out of range [1,64]", ncpu))
	}
	shift := uint(bits.TrailingZeros(uint(lineSize)))
	cshift := max(chunkShift, shift)
	return &Directory{
		ncpu:         ncpu,
		lineMask:     uint64(lineSize - 1),
		lineShift:    shift,
		chunkShift:   cshift,
		lines:        1 << (cshift - shift),
		words:        max(1, lineSize/wordSize),
		invalScratch: make([]int, 0, ncpu),
	}
}

// locate returns the chunk holding addr's line (nil when its frame was
// never touched) and the line's index within it.
func (d *Directory) locate(addr uint64) (*chunk, int) {
	l := int(addr>>d.lineShift) & (d.lines - 1)
	ci := addr >> d.chunkShift
	if ci >= uint64(len(d.chunks)) {
		return nil, l
	}
	return d.chunks[ci], l
}

// state returns the chunk holding addr's line, allocating it on the
// first touch of its frame, and the line's index within it.
func (d *Directory) state(addr uint64) (*chunk, int) {
	c, l := d.locate(addr)
	if c != nil {
		return c, l
	}
	ci := int(addr >> d.chunkShift)
	if ci >= len(d.chunks) {
		d.chunks = append(d.chunks, make([]*chunk, ci+1-len(d.chunks))...)
	}
	n := d.lines
	u := make([]uint64, 2*n)
	b := make([]int8, n*(1+d.words+d.ncpu))
	fill(b, -1)
	c = &chunk{
		owners:     u[:n:n],
		held:       u[n:],
		dirtyOwner: b[:n:n],
		wordWriter: b[n : n+n*d.words : n+n*d.words],
		lostTo:     b[n+n*d.words:],
	}
	d.chunks[ci] = c
	return c, l
}

// classifyMiss determines the miss class for cpu accessing word of line
// l in chunk c.
func (d *Directory) classifyMiss(c *chunk, l, cpu, word int) Class {
	if c.held[l] == 0 && c.owners[l] == 0 {
		return Cold
	}
	w := c.wordWriter[l*d.words+word]
	if c.held[l]&(1<<uint(cpu)) == 0 {
		// This CPU never held the line; another CPU touched it first.
		// If the word was produced by another CPU this is communication.
		if w >= 0 && int(w) != cpu {
			return TrueShare
		}
		return Cold
	}
	if inv := c.lostTo[l*d.ncpu+cpu]; inv >= 0 {
		if w >= 0 && int(w) != cpu {
			return TrueShare
		}
		return FalseShare
	}
	return Replacement
}

// wordIndex clamps the accessed word within the line.
func (d *Directory) wordIndex(addr uint64) int {
	return int((addr & d.lineMask) / wordSize) // wordSize is a constant power of two
}

// Access performs the protocol action for cpu touching addr. The
// returned Outcome.Invalidated aliases the directory's scratch buffer:
// it is valid until the next Access.
func (d *Directory) Access(cpu int, addr uint64, write bool) Outcome {
	c, l := d.state(addr)
	word := d.wordIndex(addr)
	bit := uint64(1) << uint(cpu)

	out := Outcome{Downgraded: -1}
	if c.owners[l]&bit != 0 {
		out.Class = Hit
		if write && c.owners[l] != bit {
			// Write hit on a shared line: upgrade + invalidate others.
			out.Upgrade = true
			out.Invalidated = d.invalidateOthers(c, l, cpu)
		}
	} else {
		out.Class = d.classifyMiss(c, l, cpu, word)
		dirty := c.dirtyOwner[l]
		if dirty >= 0 && int(dirty) != cpu {
			out.DirtyRemote = true
		}
		if write {
			out.Invalidated = d.invalidateOthers(c, l, cpu)
		} else if dirty >= 0 && int(dirty) != cpu {
			// Read of a dirty remote line: owner downgrades to shared,
			// memory (and requester) get the data.
			out.Downgraded = int(dirty)
			c.dirtyOwner[l] = -1
		}
		c.owners[l] |= bit
		c.held[l] |= bit
		c.lostTo[l*d.ncpu+cpu] = -1
	}

	if write {
		c.dirtyOwner[l] = int8(cpu)
		c.wordWriter[l*d.words+word] = int8(cpu)
	}
	return out
}

// invalidateOthers removes every owner of line l except cpu, recording
// cpu as the invalidator, and returns the invalidated CPUs in ascending
// order in the scratch buffer (nil when there are none).
func (d *Directory) invalidateOthers(c *chunk, l, cpu int) []int {
	others := c.owners[l] &^ (1 << uint(cpu))
	if others == 0 {
		return nil
	}
	c.owners[l] &^= others
	lost := c.lostTo[l*d.ncpu : (l+1)*d.ncpu]
	d.invalScratch = d.invalScratch[:0]
	for b := others; b != 0; b &= b - 1 {
		p := bits.TrailingZeros64(b)
		lost[p] = int8(cpu)
		d.invalScratch = append(d.invalScratch, p)
	}
	return d.invalScratch
}

// Evict records that cpu's external cache displaced the line containing
// addr (capacity/conflict, not coherence); a later re-fetch by cpu is a
// Replacement miss.
func (d *Directory) Evict(cpu int, addr uint64) {
	c, l := d.locate(addr)
	if c == nil {
		return
	}
	bit := uint64(1) << uint(cpu)
	if c.owners[l]&bit == 0 {
		return
	}
	c.owners[l] &^= bit
	c.lostTo[l*d.ncpu+cpu] = -1 // self-inflicted loss
	if int(c.dirtyOwner[l]) == cpu {
		c.dirtyOwner[l] = -1 // written back to memory
	}
}

// Holders returns how many CPUs currently hold addr's line; for tests.
func (d *Directory) Holders(addr uint64) int {
	c, l := d.locate(addr)
	if c == nil {
		return 0
	}
	return bits.OnesCount64(c.owners[l])
}

// Forget resets the line containing addr to its untouched state; used
// when a page is recolored and its old frame's lines cease to exist.
func (d *Directory) Forget(addr uint64) {
	c, l := d.locate(addr)
	if c == nil {
		return
	}
	c.owners[l], c.held[l], c.dirtyOwner[l] = 0, 0, -1
	fill(c.wordWriter[l*d.words:(l+1)*d.words], -1)
	fill(c.lostTo[l*d.ncpu:(l+1)*d.ncpu], -1)
}

func fill(b []int8, v int8) {
	for i := range b {
		b[i] = v
	}
}

// Reset drops all line state (between independent runs).
func (d *Directory) Reset() { d.chunks = nil }
