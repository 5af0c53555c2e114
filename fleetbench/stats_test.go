package main

import "testing"

func TestQuantileNearestRank(t *testing.T) {
	ten := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{ten, 0.5, 5},   // rank ceil(5) = 5
		{ten, 0.9, 9},   // rank 9
		{ten, 0.99, 10}, // rank ceil(9.9) = 10
		{ten, 0.1, 1},
		{ten, 0.11, 2}, // rank ceil(1.1) = 2
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2}, // even size: lower middle
		{[]float64{7}, 0.9, 7},
		{nil, 0.5, 0},
	}
	for _, c := range cases {
		if got := quantile(c.xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	if got := median(ten); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if ten[0] != 10 {
		t.Error("quantile reordered its input")
	}
}

func TestRatio(t *testing.T) {
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio(3, 0) = %v, want 0", got)
	}
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v, want 0.75", got)
	}
}
