// Package coherence implements an invalidation-based (MESI-style)
// coherence directory over the last-level cache instances of the
// machine's topology, plus the word-granularity bookkeeping needed to
// classify coherence misses into true and false sharing following
// Dubois et al., the classification the paper's Figure 2 memory-system
// graph uses (§4.1).
//
// Directory nodes are cache units, not CPUs: on the default topology
// every CPU owns a private external cache (one node per CPU, the
// paper's machine), while a clustered or machine-shared LLC registers
// one node per instance and sharing within a cluster never touches the
// directory. The directory is the single source of truth for which
// units hold a line; the simulator mirrors its invalidation decisions
// into the per-unit cache models.
//
// Line state is frame-dense: a table indexed by physical frame
// (paddr >> 12) points at per-frame chunks of flat arrays, allocated on
// the first touch of the frame, so the per-reference path does no map
// lookup and allocates nothing once a frame is resident.
package coherence
