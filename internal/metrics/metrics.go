// Package metrics provides the small statistics and table-formatting
// toolkit used by the experiment harness and the benchmarks: latency
// summaries, round-trip distributions, and aligned ASCII tables whose
// rows are what EXPERIMENTS.md records.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Summary condenses a sample of durations.
type Summary struct {
	Count    int
	Min, Max time.Duration
	Mean     time.Duration
	P50, P95 time.Duration
}

// Summarize computes a Summary; the zero Summary is returned for an
// empty sample.
func Summarize(samples []time.Duration) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	sorted := make([]time.Duration, len(samples))
	copy(sorted, samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var total time.Duration
	for _, d := range sorted {
		total += d
	}
	return Summary{
		Count: len(sorted),
		Min:   sorted[0],
		Max:   sorted[len(sorted)-1],
		Mean:  total / time.Duration(len(sorted)),
		P50:   NearestRank(sorted, 0.50),
		P95:   NearestRank(sorted, 0.95),
	}
}

// RoundDist is a histogram of per-operation round-trip counts.
type RoundDist map[int]int

// Add counts one operation that took r round-trips.
func (d RoundDist) Add(r int) { d[r]++ }

// FastFraction reports the share of 1-round operations.
func (d RoundDist) FastFraction() float64 {
	total := 0
	for _, n := range d {
		total += n
	}
	if total == 0 {
		return 0
	}
	return float64(d[1]) / float64(total)
}

// String renders the histogram compactly, e.g. "1r:47 3r:3".
func (d RoundDist) String() string {
	if len(d) == 0 {
		return "(empty)"
	}
	rounds := make([]int, 0, len(d))
	for r := range d {
		rounds = append(rounds, r)
	}
	sort.Ints(rounds)
	parts := make([]string, 0, len(rounds))
	for _, r := range rounds {
		parts = append(parts, fmt.Sprintf("%dr:%d", r, d[r]))
	}
	return strings.Join(parts, " ")
}

// Table is an aligned ASCII table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends one row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "**%s**\n\n", t.Title)
	}
	b.WriteString("| " + strings.Join(t.Headers, " | ") + " |\n")
	seps := make([]string, len(t.Headers))
	for i := range seps {
		seps[i] = "---"
	}
	b.WriteString("| " + strings.Join(seps, " | ") + " |\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	return b.String()
}

// Itoa is a convenience for building rows.
func Itoa(n int) string { return fmt.Sprintf("%d", n) }

// Bool renders ✓/✗ cells.
func Bool(v bool) string {
	if v {
		return "yes"
	}
	return "no"
}
