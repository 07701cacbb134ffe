package slab

import (
	"runtime"
	"runtime/debug"
	"testing"
)

func TestTakeRoundsCapacityUpToAPowerOfTwo(t *testing.T) {
	var p Classes[int]
	for _, c := range []struct{ n, cap int }{{1, 1}, {2, 2}, {3, 4}, {64, 64}, {65, 128}, {8192, 8192}, {8193, 16384}} {
		if s := p.Take(c.n); len(s) != c.n || cap(s) != c.cap {
			t.Fatalf("Take(%d): len %d cap %d, want len %d cap %d", c.n, len(s), cap(s), c.n, c.cap)
		}
	}
}

// TestGiveServesTakesUpToItsCapacity: a given slice comes back to a Take of
// its class — whatever capacity append left it with — holding what its last
// owner wrote, and never to a Take larger than its capacity.
func TestGiveServesTakesUpToItsCapacity(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))  // the pools are per P
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties them
	var p Classes[int]

	odd := make([]int, 3, 100) // serves Takes of up to 64
	odd[0] = 7
	p.Give(odd)
	if s := p.Take(100); &s[0] == &odd[0] {
		t.Fatal("a slice of capacity 100 served a Take of 100 from the 128 class")
	}
	s := p.Take(40)
	if &s[0] != &odd[0] || len(s) != 40 || s[0] != 7 {
		t.Fatalf("Take(40) after giving a capacity-100 slice: len %d, first %d, same array %v", len(s), s[0], &s[0] == &odd[0])
	}

	p.Give(nil) // nothing to keep
	p.Give(make([]int, 0))
	if s := p.Take(1); cap(s) != 1 {
		t.Fatalf("Take(1) after giving empty slices: cap %d", cap(s))
	}
}

// TestWarmTakeGiveAllocatesNothing: once a class holds a slice, taking and
// giving it back costs no allocation — the boxes travel with it.
func TestWarmTakeGiveAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var p Classes[byte]
	if allocs := testing.AllocsPerRun(100, func() { p.Give(p.Take(8192)) }); allocs != 0 {
		t.Fatalf("a warm Take/Give allocates %.1f times", allocs)
	}
}
