package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs is sorted in place. It returns 0 for an
// empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// nsToMs converts nanosecond samples to milliseconds.
func nsToMs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ratio returns a/b, or 0 when b is 0 (a per-layer ratio whose base the
// workload does not exercise).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timed is a sample taken at a time (ns since the pass's epoch).
type timed struct{ at, v int64 }

// slotQuantiles splits the samples into consecutive one-second slots
// from start and returns the q-quantile of each non-empty slot, in ms.
// The median of these resists a single stall in a long run better than
// one quantile over all samples.
func slotQuantiles(xs []timed, start int64, q float64) []float64 {
	slots := make(map[int64][]float64)
	for _, x := range xs {
		i := (x.at - start) / int64(time.Second)
		slots[i] = append(slots[i], float64(x.v)/1e6)
	}
	out := make([]float64, 0, len(slots))
	for _, s := range slots {
		out = append(out, quantile(s, q))
	}
	return out
}
