package main

import "testing"

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{10, 10, 1, 10}, 10},
	}
	for _, c := range cases {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestFastest(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{3, 1, 2}, 1},
		{[]float64{9, 7, 7, 8}, 7},
	}
	for _, c := range cases {
		if got := fastest(c.in); got != c.want {
			t.Errorf("fastest(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTailOf(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	// 100 samples: rank 90 has exactly ten samples beyond it.
	if got := tailOf(xs); got != (tail{Value: 90, Pct: 90, N: 100}) {
		t.Errorf("tailOf(1..100) = %+v", got)
	}
	// 40 samples: rank 30, the 75th percentile.
	if got := tailOf(xs[60:]); got != (tail{Value: 30, Pct: 75, N: 40}) {
		t.Errorf("tailOf(1..40) = %+v", got)
	}
	// Ten samples leave no percentile with ten beyond it.
	if got := tailOf(xs[90:]); got != (tail{N: 10}) {
		t.Errorf("tailOf(1..10) = %+v", got)
	}
}

func TestByClass(t *testing.T) {
	b := make(byClass)
	for i, v := range []float64{5, 1, 9, 2, 7, 3} {
		b.add([]string{"hit", "miss"}[i%2], v)
	}
	if got := b["hit"]; len(got) != 3 || got[0] != 5 || got[1] != 9 || got[2] != 7 {
		t.Errorf("hit samples %v, want [5 9 7] in arrival order", got)
	}
	if b.median("hit") != 7 || b.median("miss") != 2 || b.median("mutate") != 0 {
		t.Errorf("class medians %v %v %v, want 7 2 0", b.median("hit"), b.median("miss"), b.median("mutate"))
	}
}

func TestMeanOfMedians(t *testing.T) {
	b := byClass{"small": {1, 2, 100}, "large": {10, 12, 11, 9}, "one": {4}}
	// medians 2, 10.5 and 4
	if got := b.meanOfMedians(); got != 16.5/3 {
		t.Errorf("meanOfMedians = %v, want %v", got, 16.5/3)
	}
	if got := (byClass{}).meanOfMedians(); got != 0 {
		t.Errorf("empty meanOfMedians = %v", got)
	}
}
