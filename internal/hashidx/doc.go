// Package hashidx holds the simulator's map-free structures for the
// per-reference path.
//
// Index is a small open-addressing hash index from uint64 keys (virtual
// page numbers, cache-line addresses) to int32 values (slot numbers,
// frame numbers); the page table uses it directly. It is one flat array
// of key/value cells with linear probing from a multiplicative
// (Fibonacci) hash and backward-shift deletion, so a lookup is one
// multiply and a short scan of adjacent cells, and no operation
// allocates once the table has reached its working size.
//
// LRU is a fixed-capacity set of uint64 keys in least-recently-used
// order, an intrusive list over preallocated slots found through an
// Index. The TLB and the shadow classifier are both built on it.
package hashidx
