package main

import (
	"math"
	"slices"
	"sort"
)

// minBeyond is the number of samples that must lie above a reported tail
// percentile: a tail read from fewer samples is one outlier, not a tail.
const minBeyond = 10

// tail is one tail read-out: the value at percentile Pct, chosen as the
// highest percentile that still has at least minBeyond samples beyond it.
type tail struct {
	Value  float64
	Pct    float64 // percentile in [0, 100]
	Beyond int     // samples strictly above the reported rank
	N      int     // sample count
}

// tailOf returns the tail of xs by the "≥ minBeyond beyond" rule: with n
// sorted samples the reported rank is n−1−minBeyond, the highest index that
// leaves minBeyond samples above it. With too few samples for that, the
// median is the best tail the data supports.
func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	xs = slices.Sorted(slices.Values(xs))
	idx := n - 1 - minBeyond
	if idx < n/2 {
		idx = n / 2
	}
	return tail{
		Value:  xs[idx],
		Pct:    100 * float64(idx+1) / float64(n),
		Beyond: n - 1 - idx,
		N:      n,
	}
}

// median returns the median of xs (mean of the middle pair for even n).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	xs = slices.Sorted(slices.Values(xs))
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// span is a closed-open wall-clock interval in nanoseconds.
type span struct{ start, end int64 }

// selfTime returns the parent span's duration minus the part of it that the
// children cover. Children may overlap each other (they run on parallel
// shards) and may stick out of the parent; only their union inside the
// parent counts. children is sorted in place.
func selfTime(parent span, children []span) int64 {
	sort.Slice(children, func(i, j int) bool { return children[i].start < children[j].start })
	return parent.end - parent.start - covered(parent, [][]span{children})
}

// covered returns how much of parent the union of the spans in lists
// covers. Each list must be sorted by start (a shard records its spans in
// order); the lists are merged on the fly, so no combined copy is sorted.
func covered(parent span, lists [][]span) int64 {
	heads := make([]int, len(lists))
	next := func() (span, bool) {
		best := -1
		for i, l := range lists {
			if heads[i] < len(l) && (best < 0 || l[heads[i]].start < lists[best][heads[best]].start) {
				best = i
			}
		}
		if best < 0 {
			return span{}, false
		}
		heads[best]++
		return lists[best][heads[best]-1], true
	}
	var total int64
	curS, curE := int64(0), int64(0)
	open := false
	for {
		c, ok := next()
		if !ok {
			break
		}
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if e <= s {
			continue
		}
		switch {
		case !open:
			curS, curE, open = s, e, true
		case s <= curE:
			curE = max(curE, e)
		default:
			total += curE - curS
			curS, curE = s, e
		}
	}
	if open {
		total += curE - curS
	}
	return total
}
