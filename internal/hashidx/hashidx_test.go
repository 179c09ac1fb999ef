package hashidx

import (
	"math/rand"
	"testing"
)

// TestMatchesGoMap drives the index and a Go map with the same seeded
// random Put/Delete/Get/Clear sequence and requires identical answers
// after every step. Keys come from a small universe so that probe runs
// collide, wrap around the table end and get punched by deletions, and
// from line-aligned addresses whose low bits are all zero.
func TestMatchesGoMap(t *testing.T) {
	for _, tc := range []struct {
		name     string
		capacity int
		key      func(*rand.Rand) uint64
	}{
		{"dense", 8, func(r *rand.Rand) uint64 { return uint64(r.Intn(40)) }},
		{"lines", 64, func(r *rand.Rand) uint64 { return uint64(r.Intn(300)) << 7 }},
		{"wide", 4, func(r *rand.Rand) uint64 { return r.Uint64() >> uint(r.Intn(64)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				rng := rand.New(rand.NewSource(seed))
				ix := New(tc.capacity)
				ref := map[uint64]int32{}
				for step := 0; step < 20000; step++ {
					k := tc.key(rng)
					switch op := rng.Intn(100); {
					case op < 45:
						v := int32(rng.Intn(1 << 20))
						ix.Put(k, v)
						ref[k] = v
					case op < 75:
						wv, wok := ref[k]
						if v, ok := ix.Delete(k); ok != wok || v != wv {
							t.Fatalf("seed %d step %d: Delete(%#x) = %d,%v, want %d,%v", seed, step, k, v, ok, wv, wok)
						}
						delete(ref, k)
					case op < 99:
						v, ok := ix.Get(k)
						wv, wok := ref[k]
						if ok != wok || v != wv {
							t.Fatalf("seed %d step %d: Get(%#x) = %d,%v, want %d,%v", seed, step, k, v, ok, wv, wok)
						}
					default:
						ix.Clear()
						clear(ref)
					}
					if ix.Len() != len(ref) {
						t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, ix.Len(), len(ref))
					}
				}
				for k, wv := range ref {
					if v, ok := ix.Get(k); !ok || v != wv {
						t.Fatalf("seed %d: final Get(%#x) = %d,%v, want %d", seed, k, v, ok, wv)
					}
				}
			}
		})
	}
}

func TestNegativeValuePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Put with a negative value did not panic")
		}
	}()
	New(1).Put(1, -1)
}

func TestNoAllocationWithinCapacity(t *testing.T) {
	ix := New(64)
	allocs := testing.AllocsPerRun(100, func() {
		for k := uint64(0); k < 64; k++ {
			ix.Put(k<<12, int32(k))
		}
		for k := uint64(0); k < 64; k++ {
			ix.Get(k << 12)
			ix.Delete(k << 12)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per run, want 0", allocs)
	}
}
