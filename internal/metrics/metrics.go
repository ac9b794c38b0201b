// Package metrics provides the small statistics and table-rendering toolkit
// the experiment harness uses to report the paper's figures and tables:
// means, standard deviations, percentiles, relative overheads, and aligned
// text tables.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Summary accumulates float64 samples and answers the usual statistics.
// The zero value is ready to use.
type Summary struct {
	samples []float64
	sorted  []float64 // lazily maintained sorted copy of samples
	clean   bool      // sorted mirrors samples
}

// PushBounded appends v to a drop-oldest sliding window: once the ring
// holds window elements, the oldest is shifted out first. The fleet's
// policy signals and the server's per-deployment latency summary share
// this idiom so their windowed semantics cannot diverge.
func PushBounded[T any](ring []T, v T, window int) []T {
	if window > 0 && len(ring) >= window {
		copy(ring, ring[1:])
		ring = ring[:len(ring)-1]
	}
	return append(ring, v)
}

// NewSummary returns a summary over the given samples. The summary retains
// the slice but never reorders it (order statistics work on an internal
// sorted copy; TestNewSummaryDoesNotMutateCaller pins this); a later Add may
// append into the slice's spare capacity, so the caller must not grow it.
func NewSummary(samples []float64) *Summary {
	return &Summary{samples: samples}
}

// Add appends one sample.
func (s *Summary) Add(v float64) {
	s.samples = append(s.samples, v)
	s.clean = false
}

// AddDuration appends a duration sample in milliseconds.
func (s *Summary) AddDuration(d time.Duration) {
	s.Add(float64(d) / float64(time.Millisecond))
}

// N returns the number of samples.
func (s *Summary) N() int { return len(s.samples) }

// Mean returns the arithmetic mean (0 for no samples).
func (s *Summary) Mean() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.samples {
		sum += v
	}
	return sum / float64(len(s.samples))
}

// Std returns the population standard deviation.
func (s *Summary) Std() float64 {
	n := len(s.samples)
	if n == 0 {
		return 0
	}
	m := s.Mean()
	var ss float64
	for _, v := range s.samples {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

func (s *Summary) ensureSorted() {
	if !s.clean {
		s.sorted = append(s.sorted[:0], s.samples...)
		sort.Float64s(s.sorted)
		s.clean = true
	}
}

// Percentile returns the p-th percentile (0 <= p <= 100) by linear
// interpolation between closest ranks.
func (s *Summary) Percentile(p float64) float64 {
	if len(s.samples) == 0 {
		return 0
	}
	s.ensureSorted()
	return PercentileSorted(s.sorted, p)
}

// PercentileSorted returns the p-th percentile of an already-sorted sample
// slice by linear interpolation between closest ranks — the exact convention
// Summary.Percentile uses (it delegates here). Callers with a reusable
// sorted scratch buffer (the fleet's per-tick latency signals) get
// Summary-identical answers without building a Summary per read.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
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

// Median returns the 50th percentile.
func (s *Summary) Median() float64 { return s.Percentile(50) }

// P99 returns the 99th percentile — the tail figure SLO dashboards and the
// failure benchmarks report alongside the mean.
func (s *Summary) P99() float64 { return s.Percentile(99) }

// P999 returns the 99.9th percentile: the deep tail, where rare events —
// a retried cold start, a crash-and-requeue — surface even when the p99
// barely moves.
func (s *Summary) P999() float64 { return s.Percentile(99.9) }

// RelOverheadPct returns (x-base)/base in percent — the paper's relative
// overhead convention (positive is worse than baseline).
func RelOverheadPct(x, base float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (x - base) / base
}

// Ratio returns x/base (the paper's relative-throughput convention).
func Ratio(x, base float64) float64 {
	if base == 0 {
		return 0
	}
	return x / base
}

// Table renders aligned text tables for the CLI and the experiment logs.
type Table struct {
	header []string
	rows   [][]string
	title  string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{title: title, header: header}
}

// AddRow appends a row; cells beyond the header width are dropped.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.header) {
		cells = cells[:len(t.header)]
	}
	row := make([]string, len(t.header))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// AddRowf appends a row of formatted values.
func (t *Table) AddRowf(format string, cells ...interface{}) {
	t.AddRow(strings.Split(fmt.Sprintf(format, cells...), "\t")...)
}

// Render returns the aligned table as a string.
func (t *Table) Render() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "# %s\n", t.title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i == len(cells)-1 {
				b.WriteString(c) // no trailing padding
			} else {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			}
		}
		b.WriteByte('\n')
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}
