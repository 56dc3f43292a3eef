package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a statistic for it to be
// reported as a number: a p99 over 500 samples has only 5 beyond it and
// says nothing about the 99th percentile.
const minBeyond = 10

// Stat is one order statistic of a sample: its value, the sample count,
// and how many samples are strictly greater than the value.
type Stat struct {
	Value  float64
	N      int
	Beyond int
}

// Resolved reports whether enough samples lie beyond the statistic for
// its value to mean anything.
func (s Stat) Resolved() bool { return s.N > 0 && s.Beyond >= minBeyond }

// String prints a tail statistic: as "unresolved" when too few samples
// lie beyond it to mean anything.
func (s Stat) String() string {
	if !s.Resolved() {
		return fmt.Sprintf("unresolved (n=%d, %d beyond)", s.N, s.Beyond)
	}
	return fmt.Sprintf("%.4f (n=%d, %d beyond)", s.Value, s.N, s.Beyond)
}

// Central prints a central statistic (a median of a few repetitions)
// as a number whatever the sample count, which it states.
func (s Stat) Central() string { return fmt.Sprintf("%.4f (n=%d)", s.Value, s.N) }

// Sample is a sorted copy of a set of measurements.
type Sample struct{ xs []float64 }

// NewSample copies and sorts xs.
func NewSample(xs []float64) Sample {
	s := Sample{xs: append([]float64(nil), xs...)}
	sort.Float64s(s.xs)
	return s
}

// Mean is the arithmetic mean (0 for an empty sample).
func (s Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range s.xs {
		t += x
	}
	return t / float64(len(s.xs))
}

// stat wraps a value with the sample count and the samples beyond it.
func (s Sample) stat(v float64) Stat {
	above := len(s.xs) - sort.Search(len(s.xs), func(i int) bool { return s.xs[i] > v })
	return Stat{Value: v, N: len(s.xs), Beyond: above}
}

// Quartiles returns the first quartile, the median and the third
// quartile, interpolated the way Python's statistics.quantiles(n=4)
// does by default (the "exclusive" method): the median is the usual
// middle value or mean of the two middle values. A sample of fewer than
// two values gives its single value (or NaN when empty) for all three.
func (s Sample) Quartiles() [3]Stat {
	n := len(s.xs)
	var out [3]Stat
	switch n {
	case 0:
		for i := range out {
			out[i] = Stat{Value: math.NaN()}
		}
		return out
	case 1:
		for i := range out {
			out[i] = s.stat(s.xs[0])
		}
		return out
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		v := (s.xs[j-1]*float64(4-delta) + s.xs[j]*float64(delta)) / 4
		out[i-1] = s.stat(v)
	}
	return out
}

// Median is the middle quartile.
func (s Sample) Median() Stat { return s.Quartiles()[1] }

// Percentile returns the nearest-rank p-th percentile (0 < p ≤ 100): the
// smallest sample such that at least p% of the samples are ≤ it.
func (s Sample) Percentile(p float64) Stat {
	n := len(s.xs)
	if n == 0 {
		return Stat{Value: math.NaN()}
	}
	// The epsilon keeps float error in p/100·n (99.9% of 1000 computes as
	// 999.0000000000001) from bumping the rank.
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	rank = max(1, min(rank, n))
	return s.stat(s.xs[rank-1])
}
