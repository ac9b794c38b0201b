package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, v := range []float64{1, 2, 3, 4, 5} {
		s.Add(v)
	}
	if s.N() != 5 || s.Mean() != 3 {
		t.Fatalf("N=%d mean=%v", s.N(), s.Mean())
	}
	if got := s.Std(); math.Abs(got-math.Sqrt(2)) > 1e-9 {
		t.Fatalf("std = %v", got)
	}
	if s.Median() != 3 || s.Percentile(0) != 1 || s.Percentile(100) != 5 {
		t.Fatalf("p50/p0/p100 = %v/%v/%v", s.Median(), s.Percentile(0), s.Percentile(100))
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Std() != 0 || s.Median() != 0 || s.Percentile(95) != 0 || s.Percentile(0) != 0 || s.Percentile(100) != 0 {
		t.Fatal("empty summary not all-zero")
	}
}

func TestPercentileInterpolation(t *testing.T) {
	var s Summary
	for _, v := range []float64{10, 20, 30, 40} {
		s.Add(v)
	}
	if got := s.Percentile(50); got != 25 {
		t.Fatalf("p50 = %v, want 25", got)
	}
	if got := s.Percentile(0); got != 10 {
		t.Fatalf("p0 = %v", got)
	}
	if got := s.Percentile(100); got != 40 {
		t.Fatalf("p100 = %v", got)
	}
}

// TestPercentileTable pins p50/p95/p99 on known sample sets — the SLO
// comparisons in the scheduling policies read these exact figures, so the
// closest-ranks interpolation must stay put. Rank = p/100 * (n-1); the
// value interpolates linearly between the two bracketing order statistics.
func TestPercentileTable(t *testing.T) {
	cases := []struct {
		name    string
		samples []float64
		p       float64
		want    float64
	}{
		// n=1: every percentile is the sample.
		{"n1-p50", []float64{7}, 50, 7},
		{"n1-p95", []float64{7}, 95, 7},
		{"n1-p99", []float64{7}, 99, 7},
		// n=2: p50 lands mid-gap, the tails interpolate toward the max.
		{"n2-p50", []float64{10, 20}, 50, 15},
		{"n2-p95", []float64{10, 20}, 95, 19.5},
		{"n2-p99", []float64{10, 20}, 99, 19.9},
		// 0..100 step 1 (n=101): rank == percentile exactly.
		{"n101-p50", ramp(101), 50, 50},
		{"n101-p95", ramp(101), 95, 95},
		{"n101-p99", ramp(101), 99, 99},
		// Duplicate-heavy: nine 1s and one 100 (inserted unsorted). p50
		// sits inside the duplicate run; p95 rank 8.55 interpolates
		// 1*(1-0.55)+100*0.55; p99 rank 8.91 likewise.
		{"dup-p50", []float64{100, 1, 1, 1, 1, 1, 1, 1, 1, 1}, 50, 1},
		{"dup-p95", []float64{100, 1, 1, 1, 1, 1, 1, 1, 1, 1}, 95, 55.45},
		{"dup-p99", []float64{100, 1, 1, 1, 1, 1, 1, 1, 1, 1}, 99, 91.09},
		// All-equal: interpolation between equal neighbors is exact.
		{"const-p50", []float64{5, 5, 5}, 50, 5},
		{"const-p99", []float64{5, 5, 5}, 99, 5},
		// Four samples: p95 rank 2.85 between 30 and 40.
		{"n4-p95", []float64{40, 10, 30, 20}, 95, 38.5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var s Summary
			for _, v := range tc.samples {
				s.Add(v)
			}
			got := s.Percentile(tc.p)
			if math.Abs(got-tc.want) > 1e-9 {
				t.Fatalf("p%v of %v = %v, want %v", tc.p, tc.samples, got, tc.want)
			}
			// Percentile reads must be stable: asking again (post-sort)
			// returns the identical value.
			if again := s.Percentile(tc.p); again != got {
				t.Fatalf("repeated read moved: %v -> %v", got, again)
			}
		})
	}
}

func TestTailPercentiles(t *testing.T) {
	cases := []struct {
		name      string
		samples   []float64
		p99, p999 float64
	}{
		// 1..1000: p99 rank 989.01 interpolates 990..991, p999 rank
		// 998.001 interpolates 999..1000.
		{"ramp1000", ramp1(1000), 990.01, 999.001},
		// One outlier in ten samples: both tails interpolate toward it,
		// p999 almost reaching it (ranks 8.91 and 8.991).
		{"outlier", []float64{1000, 1, 1, 1, 1, 1, 1, 1, 1, 1}, 910.09, 991.009},
		// A single sample is every percentile.
		{"n1", []float64{42}, 42, 42},
		{"const", []float64{5, 5, 5, 5}, 5, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var s Summary
			for _, v := range tc.samples {
				s.Add(v)
			}
			if got := s.P99(); math.Abs(got-tc.p99) > 1e-9 {
				t.Fatalf("P99 = %v, want %v", got, tc.p99)
			}
			if got := s.P999(); math.Abs(got-tc.p999) > 1e-9 {
				t.Fatalf("P999 = %v, want %v", got, tc.p999)
			}
			if s.P999() < s.P99() {
				t.Fatal("P999 below P99")
			}
		})
	}
	var empty Summary
	if empty.P99() != 0 || empty.P999() != 0 {
		t.Fatal("empty summary tails not zero")
	}
}

// ramp1 returns 1..n in reverse order.
func ramp1(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i)
	}
	return out
}

// ramp returns 0..n-1 in reverse order (exercising the lazy sort).
func ramp(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - 1 - i)
	}
	return out
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(vals []float64, a, b uint8) bool {
		var s Summary
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				s.Add(v)
			}
		}
		p1, p2 := float64(a%101), float64(b%101)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return s.Percentile(p1) <= s.Percentile(p2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddDuration(t *testing.T) {
	var s Summary
	s.AddDuration(1500 * time.Microsecond)
	if got := s.Mean(); got != 1.5 {
		t.Fatalf("duration sample = %v ms, want 1.5", got)
	}
}

func TestRelOverheadAndRatio(t *testing.T) {
	if got := RelOverheadPct(110, 100); math.Abs(got-10) > 1e-9 {
		t.Fatalf("rel overhead = %v", got)
	}
	if got := RelOverheadPct(90, 100); math.Abs(got+10) > 1e-9 {
		t.Fatalf("rel overhead = %v", got)
	}
	if RelOverheadPct(5, 0) != 0 || Ratio(5, 0) != 0 {
		t.Fatal("zero baseline not handled")
	}
	if got := Ratio(50, 100); got != 0.5 {
		t.Fatalf("ratio = %v", got)
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Fig X", "name", "value")
	tb.AddRow("alpha", "1.0")
	tb.AddRowf("beta\t%0.1f", 2.5)
	out := tb.Render()
	if !strings.Contains(out, "# Fig X") {
		t.Fatalf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "2.5") {
		t.Fatalf("missing rows:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if len(tb.rows) != 2 {
		t.Fatalf("rows = %d", len(tb.rows))
	}
}

func TestTableRowClamping(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("1", "2", "3") // extra cell dropped
	tb.AddRow("only")        // short row padded
	out := tb.Render()
	if strings.Contains(out, "3") {
		t.Fatalf("extra cell kept:\n%s", out)
	}
}
