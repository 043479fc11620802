package main

import "sort"

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty slice. xs is not
// modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// fastest returns the smallest value of xs, or 0 for an empty slice.
func fastest(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = min(m, x)
	}
	return m
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tail is the highest percentile of a sample that still has at least
// ten samples beyond it, as the choosing-metrics rule asks: with n
// samples it is the value at rank n-10 (1-based) of the sorted sample,
// reported with the percentile that rank stands for and the count.
type tail struct {
	Value float64 // the sample at that rank
	Pct   float64 // percentile the rank stands for: 100*(n-10)/n
	N     int     // sample count
}

// tailOf computes the tail of xs; with ten samples or fewer no
// percentile has ten samples beyond it and the zero tail (N set) comes
// back.
func tailOf(xs []float64) tail {
	n := len(xs)
	if n <= 10 {
		return tail{N: n}
	}
	s := sorted(xs)
	rank := n - 10 // 1-based rank with exactly ten samples above it
	return tail{Value: s[rank-1], Pct: 100 * float64(rank) / float64(n), N: n}
}

// byClass splits per-operation samples by operation class, keeping
// each class's samples in arrival order.
type byClass map[string][]float64

func (b byClass) add(class string, v float64) { b[class] = append(b[class], v) }

// median of one class (0 when the class has no samples).
func (b byClass) median(class string) float64 { return median(b[class]) }

// meanOfMedians is the mean over classes of each class's median: a
// centre that weights every class alike however many samples each
// drew.
func (b byClass) meanOfMedians() float64 {
	if len(b) == 0 {
		return 0
	}
	classes := make([]string, 0, len(b))
	for c := range b {
		classes = append(classes, c)
	}
	sort.Strings(classes) // a fixed summation order
	total := 0.0
	for _, c := range classes {
		total += median(b[c])
	}
	return total / float64(len(b))
}
