//go:build race

package slab

// raceEnabled says the race detector is on, under which sync.Pool drops
// items at random.
const raceEnabled = true
