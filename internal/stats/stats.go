// Package stats provides the descriptive statistics the paper's Table 4
// reports over per-session relative overheads: Min, Max, Mean, the
// 10–90% trimmed mean ("T-Mean"), and the 90th and 98th percentiles.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary is the Table 4 statistic set for one sample.
type Summary struct {
	N     int
	Min   float64
	Max   float64
	Mean  float64
	TMean float64 // mean of values between the 10th and 90th percentiles
	P90   float64
	P98   float64
}

// Summarize computes the full statistic set. It copies and sorts the
// input. An empty sample yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Summary{
		N:     len(s),
		Min:   s[0],
		Max:   s[len(s)-1],
		Mean:  meanOf(s),
		TMean: trimmedMean(s, 0.10, 0.90),
		P90:   percentileSorted(s, 90),
		P98:   percentileSorted(s, 98),
	}
}

func meanOf(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentileSorted returns the p-th percentile (0 ≤ p ≤ 100) of a
// sorted, non-empty sample by the nearest-rank method.
func percentileSorted(s []float64, p float64) float64 {
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// trimmedMean returns the mean of the sorted sample's values between
// the lo and hi quantiles (fractions in [0,1]); the paper's T-Mean is
// trimmedMean(s, 0.1, 0.9).
func trimmedMean(s []float64, lo, hi float64) float64 {
	n := len(s)
	loIdx := int(math.Floor(lo * float64(n)))
	hiIdx := int(math.Ceil(hi * float64(n)))
	if hiIdx > n {
		hiIdx = n
	}
	if loIdx >= hiIdx {
		// Degenerate tiny samples: fall back to the plain mean.
		return meanOf(s)
	}
	return meanOf(s[loIdx:hiIdx])
}

// Format renders a float the way the paper's tables do: two decimals,
// with a leading dot for values below one (".07") and plain integers
// where exact.
func Format(x float64) string {
	s := fmt.Sprintf("%.2f", x)
	if x < 1 && x > 0 {
		return s[1:] // ".07"
	}
	if s == "0.00" && x == 0 {
		return "0"
	}
	return s
}
