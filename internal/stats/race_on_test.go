//go:build race

package stats

// raceEnabled says the race detector is on, under which sync.Pool drops
// items at random.
const raceEnabled = true
