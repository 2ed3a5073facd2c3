// Package stats provides the small reporting toolkit the experiment drivers
// and the serving runtime share: event counters, geometric means, exact
// percentiles over a sample slice, formatted ASCII tables (the rows/series
// the paper's figures plot), and CSV export for downstream plotting.
// Latency recording lives in internal/telemetry (Histogram).
package stats

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync/atomic"
)

// Counter is a monotonically increasing, concurrency-safe event counter —
// cache hits and misses, routed sub-requests, transferred bytes. The zero
// value is ready to use.
type Counter struct{ n atomic.Uint64 }

// Inc adds one to the counter.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds delta to the counter.
func (c *Counter) Add(delta uint64) { c.n.Add(delta) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.n.Load() }

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

// Percentile returns the p-th percentile (0 <= p <= 100) of xs by linear
// interpolation between closest ranks. It returns NaN for empty input and
// does not modify xs.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Table is a titled grid of cells with a header row.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// FormatFloat renders a float compactly: 3 significant decimals for small
// magnitudes, fewer for large ones.
func FormatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	var rule []string
	for _, w := range widths {
		rule = append(rule, strings.Repeat("-", w))
	}
	writeRow(rule)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// WriteCSV emits the table as CSV (header row first). Cells containing
// commas or quotes are quoted.
func (t *Table) WriteCSV(w io.Writer) error {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	writeLine := func(cells []string) error {
		out := make([]string, len(cells))
		for i, c := range cells {
			out[i] = esc(c)
		}
		_, err := fmt.Fprintln(w, strings.Join(out, ","))
		return err
	}
	if err := writeLine(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeLine(row); err != nil {
			return err
		}
	}
	return nil
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
