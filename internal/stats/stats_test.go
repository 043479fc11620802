package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	s := Summarize(xs)
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 {
		t.Errorf("summary = %+v", s)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s != (Summary{}) {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Summarize mutated its input")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {10, 1}, {50, 5}, {90, 9}, {98, 10}, {100, 10},
	}
	for _, c := range cases {
		if got := percentileSorted(xs, c.p); got != c.want {
			t.Errorf("P%.0f = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestTrimmedMean(t *testing.T) {
	// 10 values; trimming 10-90% drops the lowest and keeps 1..8 of the
	// sorted middle section [1]..[8].
	xs := []float64{100, 1, 2, 3, 4, 5, 6, 7, 8, 0}
	got := Summarize(xs).TMean
	// sorted: 0 1 2 3 4 5 6 7 8 100; indices 1..8 → mean(1..8) = 4.5
	if got != 4.5 {
		t.Errorf("TMean = %v, want 4.5", got)
	}
}

func TestTrimmedMeanRobustToOutliers(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 1
	}
	xs[99] = 1e9
	s := Summarize(xs)
	if s.TMean != 1 {
		t.Errorf("TMean with outlier = %v, want 1", s.TMean)
	}
	if m := s.Mean; m < 1e6 {
		t.Errorf("Mean should be dragged by the outlier, got %v", m)
	}
}

func TestTrimmedMeanTinySample(t *testing.T) {
	// Degenerate samples fall back to the mean rather than panicking.
	if tm := Summarize([]float64{7}).TMean; tm != 7 {
		t.Errorf("TMean tiny = %v", tm)
	}
}

func TestSummaryOrderingProperties(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, math.Mod(math.Abs(x), 1e6))
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		return s.Min <= s.Mean && s.Mean <= s.Max &&
			s.Min <= s.TMean && s.TMean <= s.Max &&
			s.Min <= s.P90 && s.P90 <= s.P98 && s.P98 <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPercentileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = rng.Float64() * 100
	}
	sort.Float64s(xs)
	prev := math.Inf(-1)
	for p := 0.0; p <= 100; p += 5 {
		v := percentileSorted(xs, p)
		if v < prev {
			t.Fatalf("percentile not monotone at %v: %v < %v", p, v, prev)
		}
		prev = v
	}
}

func TestFormat(t *testing.T) {
	cases := []struct {
		x    float64
		want string
	}{
		{0, "0"},
		{0.07, ".07"},
		{0.5, ".50"},
		{1, "1.00"},
		{85.61, "85.61"},
		{636.44, "636.44"},
	}
	for _, c := range cases {
		if got := Format(c.x); got != c.want {
			t.Errorf("Format(%v) = %q, want %q", c.x, got, c.want)
		}
	}
}
