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

func TestHitRate(t *testing.T) {
	if HitRate(0, 0) != 0 {
		t.Fatal("empty hit rate must be 0")
	}
	if got := HitRate(3, 1); got != 0.75 {
		t.Fatalf("HitRate(3,1) = %g, want 0.75", got)
	}
}
