package main

import (
	"math/rand"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	var samples []time.Duration
	for _, i := range rand.New(rand.NewSource(1)).Perm(100) {
		samples = append(samples, time.Duration(i+1)*time.Millisecond)
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.01, 1}, {0.5, 50}, {0.95, 95}, {0.951, 96}, {1, 100}} {
		if got := percentile(samples, c.q); got != c.want*time.Millisecond {
			t.Errorf("p%v = %v, want %v ms", c.q*100, got, c.want)
		}
	}
	if samples[0] == time.Millisecond {
		t.Fatal("test input should be unsorted")
	}
	if got := percentile([]time.Duration{7, 3, 5}, 0.5); got != 5 {
		t.Errorf("p50 of {3,5,7} = %v, want 5", got)
	}
	if got := percentile([]time.Duration{4}, 0.95); got != 4 {
		t.Errorf("p95 of one sample = %v, want 4", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5}, {[]float64{5}, 5}, {nil, 0}} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its input")
	}
}
