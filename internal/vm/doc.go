// Package vm implements the simulated operating system's virtual-memory
// subsystem: per-application address spaces, the page-fault path, and the
// page mapping policies the paper compares — page coloring (IRIX-style),
// bin hopping (Digital UNIX-style), and the madvise-like hint interface
// CDPC uses (§2.1, §5.3). It also provides the "touch pages in a chosen
// order on top of bin hopping" emulation the paper used on Digital UNIX.
//
// The page table is an open-addressing vpn→frame index (internal/hashidx)
// and the frame→vpn reverse map a per-frame slice, so translation and
// the reverse lookups behind cache invalidation do no map lookups.
package vm
