package main

import (
	"math"
	"math/rand"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{7, 3, 10, 1, 9, 2, 8, 6, 4, 5}
	for _, c := range []struct{ p, want float64 }{
		{1, 1}, {10, 1}, {11, 2}, {50, 5}, {90, 9}, {91, 10}, {99, 10}, {100, 10},
	} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{42}, 99); got != 42 {
		t.Errorf("single sample p99 = %g", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty percentile is not NaN")
	}
	// 1000 samples: p99 leaves exactly ten samples above it.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(1000 - i)
	}
	if got := percentile(big, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990", got)
	}
}

func TestZipfSampler(t *testing.T) {
	const n, s, draws = 8, 1.1, 400000
	z := newZipf(n, s)
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		k := z.draw(rng)
		if k < 0 || k >= n {
			t.Fatalf("draw %d out of range", k)
		}
		counts[k]++
	}
	norm := 0.0
	for i := 1; i <= n; i++ {
		norm += math.Pow(float64(i), -s)
	}
	for i, c := range counts {
		want := math.Pow(float64(i+1), -s) / norm
		got := float64(c) / draws
		if math.Abs(got-want) > 0.01 {
			t.Errorf("P(%d) = %.4f, want %.4f", i, got, want)
		}
		if i > 0 && c > counts[i-1] {
			t.Errorf("item %d drawn more often than item %d", i, i-1)
		}
	}
	// The same seed draws the same sequence.
	a, b := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		if z.draw(a) != z.draw(b) {
			t.Fatal("zipf draws differ for one seed")
		}
	}
}

func TestMixSeparatesPaths(t *testing.T) {
	seen := map[int64]bool{}
	for a := int64(0); a < 50; a++ {
		for b := int64(0); b < 50; b++ {
			x := mix(1, a, b)
			if x < 0 || seen[x] {
				t.Fatalf("mix(1,%d,%d) = %d repeats or is negative", a, b, x)
			}
			seen[x] = true
		}
	}
	if mix(1, 2, 3) != mix(1, 2, 3) || mix(1, 2, 3) == mix(2, 2, 3) {
		t.Error("mix is not a function of seed and path")
	}
}

// TestHitP99Stretches: slices join a stretch until it holds minStretch hits,
// a short last stretch joins the one before it, and the figure is the first
// quartile of the stretches' p99s.
func TestHitP99Stretches(t *testing.T) {
	var s samples
	slice := func(n int, v float64) {
		hits := make([]float64, n)
		for i := range hits {
			hits[i] = v
		}
		s.addSlice([]samples{{hit: hits}})
	}
	slice(600, 1)
	slice(600, 1)  // stretch 1: 1200 hits of 1
	slice(1000, 9) // stretch 2: 1000 hits of 9
	slice(1200, 5) // stretch 3
	slice(1000, 2) // stretch 4
	slice(1000, 3) // stretch 5
	slice(100, 7)  // too short: joins stretch 5
	if len(s.stretches) != 6 {
		t.Fatalf("%d stretches, want 6 before merging", len(s.stretches))
	}
	if got := s.hitP99(); got != 2 {
		t.Fatalf("hitP99 = %v, want 2 (first quartile of 1, 9, 5, 2 and the merged 3/7 stretch's p99 7)", got)
	}
	if len(s.hit) != 5500 {
		t.Fatalf("%d hits kept, want 5500", len(s.hit))
	}
}
