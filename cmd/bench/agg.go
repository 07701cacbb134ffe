package main

import (
	"slices"
	"time"
)

// perOpMin folds K passes over the identical op sequence into one value per
// op: the fastest time that op was ever seen to take. Interference from the
// machine only ever adds time, so the minimum is the least-disturbed sample.
func perOpMin(passes [][]time.Duration) []time.Duration {
	if len(passes) == 0 {
		return nil
	}
	out := append([]time.Duration(nil), passes[0]...)
	for _, p := range passes[1:] {
		for i, d := range p {
			if d < out[i] {
				out[i] = d
			}
		}
	}
	return out
}

// pick returns the elements of xs whose op is (or is not) a GO.
func pick(xs []time.Duration, isGo []bool, wantGo bool) []time.Duration {
	var out []time.Duration
	for i, d := range xs {
		if isGo[i] == wantGo {
			out = append(out, d)
		}
	}
	return out
}

func sum(xs []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range xs {
		s += d
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// meanMs is the mean of xs in milliseconds (0 for no samples).
func meanMs(xs []time.Duration) float64 {
	if len(xs) == 0 {
		return 0
	}
	return ms(sum(xs)) / float64(len(xs))
}

// tail10Ms is the mean of the slowest tenth of xs (at least one sample), in
// milliseconds. Averaging the tail instead of reading one order statistic
// from it is what keeps the figure steady between runs.
func tail10Ms(xs []time.Duration) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := sortedCopy(xs)
	n := len(sorted) / 10
	if n < 1 {
		n = 1
	}
	return meanMs(sorted[len(sorted)-n:])
}

// opsPerSecond is count ÷ the summed wall of every op in ops: the closed-loop
// throughput of one client that never thinks.
func opsPerSecond(count int, ops []time.Duration) float64 {
	total := sum(ops).Seconds()
	if total == 0 {
		return 0
	}
	return float64(count) / total
}

func sortedCopy(xs []time.Duration) []time.Duration {
	out := slices.Clone(xs)
	slices.Sort(out)
	return out
}

// percentileMs reads the p-quantile (nearest rank) of xs in milliseconds.
func percentileMs(xs []time.Duration, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := sortedCopy(xs)
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return ms(sorted[i])
}

func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
