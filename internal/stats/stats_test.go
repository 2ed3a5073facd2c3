package stats

import (
	"math"
	"testing"
)

func TestGeomean(t *testing.T) {
	if g := Geomean([]float64{2, 8}); math.Abs(g-4) > 1e-9 {
		t.Fatalf("Geomean(2,8) = %v, want 4", g)
	}
	if !math.IsNaN(Geomean(nil)) {
		t.Fatal("Geomean(nil) must be NaN")
	}
	if !math.IsNaN(Geomean([]float64{1, -1})) {
		t.Fatal("Geomean with non-positive input must be NaN")
	}
}

func TestMean(t *testing.T) {
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Fatalf("Mean = %v", m)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) must be NaN")
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		512:       "512 B",
		2048:      "2.0 KiB",
		128 << 30: "128.0 GiB",
		3 << 40:   "3.0 TiB",
	}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestFormatSeconds(t *testing.T) {
	cases := map[float64]string{
		2.5:    "2.50 s",
		1e-3:   "1.00 ms",
		42e-6:  "42.0 us",
		100e-9: "100 ns",
	}
	for in, want := range cases {
		if got := FormatSeconds(in); got != want {
			t.Errorf("FormatSeconds(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5} // sorted: 1..5
	cases := map[float64]float64{
		0:   1,
		50:  3,
		100: 5,
		25:  2,
		75:  4,
	}
	for p, want := range cases {
		if got := Percentile(xs, p); got != want {
			t.Errorf("Percentile(%v) = %v, want %v", p, got, want)
		}
	}
	// Interpolation between ranks.
	if got := Percentile([]float64{1, 2}, 50); got != 1.5 {
		t.Errorf("Percentile 50 of {1,2} = %v, want 1.5", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("Percentile of empty input must be NaN")
	}
	// Input must not be reordered.
	if xs[0] != 4 {
		t.Error("Percentile mutated its input")
	}
}

func TestHitRate(t *testing.T) {
	if HitRate(0, 0) != 0 {
		t.Fatal("empty hit rate must be 0")
	}
	if got := HitRate(3, 1); got != 0.75 {
		t.Fatalf("HitRate(3,1) = %g, want 0.75", got)
	}
}
