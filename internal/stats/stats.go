// Package stats provides the few one-line statistics the experiment
// drivers and the serving layers share: hit rates, arithmetic and
// geometric means, and human units for bytes and seconds. Latency
// recording lives in internal/telemetry (Histogram); the experiments'
// tables live in internal/experiments.
package stats

import (
	"fmt"
	"math"
)

// HitRate returns hits/(hits+misses), or 0 when nothing was counted, so
// cache reports never divide by zero.
func HitRate(hits, misses uint64) float64 {
	total := hits + misses
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// Geomean returns the geometric mean of xs (NaN for empty or non-positive
// input, which always indicates a driver bug).
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var acc float64
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		acc += math.Log(x)
	}
	return math.Exp(acc / float64(len(xs)))
}

// Mean returns the arithmetic mean of xs (NaN for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// FormatBytes renders a byte count in human units (binary).
func FormatBytes(b int64) string {
	const unit = 1024
	if b < unit {
		return fmt.Sprintf("%d B", b)
	}
	div, exp := int64(unit), 0
	for n := b / unit; n >= unit; n /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %ciB", float64(b)/float64(div), "KMGTPE"[exp])
}

// FormatSeconds renders a duration with an appropriate unit.
func FormatSeconds(s float64) string {
	switch {
	case s >= 1:
		return fmt.Sprintf("%.2f s", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.2f ms", s*1e3)
	case s >= 1e-6:
		return fmt.Sprintf("%.1f us", s*1e6)
	default:
		return fmt.Sprintf("%.0f ns", s*1e9)
	}
}
