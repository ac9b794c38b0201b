package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// exactNearestRank returns the p-th percentile of samples under the
// nearest-rank convention the sketch documents: the sample at rank
// ceil(p/100 * n), 1-indexed in sorted order.
func exactNearestRank(samples []float64, p float64) float64 {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// adversarialDistributions builds the sample sets the sketch's error bound
// is pinned against: the degenerate and clustered shapes where a bucketed
// estimator goes wrong if its rank accounting is off by even one.
func adversarialDistributions() map[string][]float64 {
	rng := rand.New(rand.NewSource(7))
	d := map[string][]float64{
		"single":          {42.5},
		"single-tiny":     {3e-7},
		"single-huge":     {9.25e11},
		"pair-far-apart":  {1, 1e6},
		"all-zero":        make([]float64, 100),
		"constant":        make([]float64, 1000),
		"duplicate-heavy": nil,
		"bimodal":         nil,
		"ramp-linear":     nil,
		"ramp-geometric":  nil,
		"zero-mixed":      nil,
	}
	for i := range d["constant"] {
		d["constant"][i] = 17.25
	}
	// Duplicate-heavy: three distinct values, wildly uneven counts.
	for i := 0; i < 5000; i++ {
		d["duplicate-heavy"] = append(d["duplicate-heavy"], 2.0)
	}
	for i := 0; i < 49; i++ {
		d["duplicate-heavy"] = append(d["duplicate-heavy"], 900.0)
	}
	d["duplicate-heavy"] = append(d["duplicate-heavy"], 901.0)
	// Bimodal: warm hits near 1ms, cold starts near 1s, nothing between.
	for i := 0; i < 10000; i++ {
		if i%10 == 0 {
			d["bimodal"] = append(d["bimodal"], 1000+rng.Float64()*50)
		} else {
			d["bimodal"] = append(d["bimodal"], 1+rng.Float64()*0.2)
		}
	}
	// Linear ramp: every value distinct, uniform spacing.
	for i := 1; i <= 20000; i++ {
		d["ramp-linear"] = append(d["ramp-linear"], float64(i)*0.5)
	}
	// Geometric ramp: spans nine orders of magnitude.
	for i := 0; i < 9000; i++ {
		d["ramp-geometric"] = append(d["ramp-geometric"], 1e-3*math.Pow(10, float64(i)/1000))
	}
	// Zeros interleaved with real latencies.
	for i := 0; i < 3000; i++ {
		if i%3 == 0 {
			d["zero-mixed"] = append(d["zero-mixed"], 0)
		} else {
			d["zero-mixed"] = append(d["zero-mixed"], 5+rng.Float64()*100)
		}
	}
	return d
}

// TestSketchPercentileErrorBound pins the sketch's accuracy contract: for
// every adversarial distribution and a sweep of percentiles, the sketch's
// answer is within alpha relative error of the exact nearest-rank
// percentile. Zero answers must be exactly zero (the zero bucket is exact).
func TestSketchPercentileErrorBound(t *testing.T) {
	percentiles := []float64{0, 1, 10, 25, 50, 75, 90, 95, 99, 99.9, 100}
	for _, alpha := range []float64{0.005, 0.01, 0.05} {
		for name, samples := range adversarialDistributions() {
			sk := NewSketch(alpha)
			for _, v := range samples {
				sk.Add(v)
			}
			if sk.N() != len(samples) {
				t.Fatalf("%s: N = %d, want %d", name, sk.N(), len(samples))
			}
			for _, p := range percentiles {
				got := sk.Percentile(p)
				want := exactNearestRank(samples, p)
				if want == 0 {
					if got != 0 {
						t.Errorf("alpha=%v %s p%v: got %v, want exactly 0", alpha, name, p, got)
					}
					continue
				}
				if rel := math.Abs(got-want) / want; rel > alpha+1e-12 {
					t.Errorf("alpha=%v %s p%v: got %v, want %v (rel err %.4f > %.4f)",
						alpha, name, p, got, want, rel, alpha)
				}
			}
		}
	}
}

// TestSketchExactStats checks that count, mean, min, and max are exact, not
// bucket estimates.
func TestSketchExactStats(t *testing.T) {
	for name, samples := range adversarialDistributions() {
		sk := NewSketch(0)
		var sum float64
		min, max := math.Inf(1), math.Inf(-1)
		for _, v := range samples {
			sk.Add(v)
			sum += v
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		if sk.Percentile(0) != min || sk.Percentile(100) != max {
			t.Errorf("%s: p0/p100 = %v/%v, want %v/%v", name, sk.Percentile(0), sk.Percentile(100), min, max)
		}
		if got, want := sk.Mean(), sum/float64(len(samples)); math.Abs(got-want) > 1e-9*math.Abs(want) {
			t.Errorf("%s: Mean = %v, want %v", name, got, want)
		}
	}
	empty := NewSketch(0)
	if empty.N() != 0 || empty.Mean() != 0 || empty.Percentile(0) != 0 || empty.Percentile(100) != 0 || empty.Percentile(50) != 0 {
		t.Errorf("empty sketch stats not all zero: N=%d mean=%v p0=%v p100=%v p50=%v",
			empty.N(), empty.Mean(), empty.Percentile(0), empty.Percentile(100), empty.Percentile(50))
	}
}

// TestSketchMergeLossless checks that merging per-function sketches gives
// answers identical to one sketch over the concatenated stream — the
// property fleet-wide percentile pooling relies on.
func TestSketchMergeLossless(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	whole := NewSketch(0)
	merged := NewSketch(0)
	parts := make([]*Sketch, 8)
	for i := range parts {
		parts[i] = NewSketch(0)
	}
	for i := 0; i < 50000; i++ {
		v := math.Exp(rng.NormFloat64()*2 + 3)
		if i%97 == 0 {
			v = 0
		}
		whole.Add(v)
		parts[i%len(parts)].Add(v)
	}
	for _, p := range parts {
		merged.Merge(p)
	}
	if merged.N() != whole.N() {
		t.Fatalf("merged N = %d, want %d", merged.N(), whole.N())
	}
	for _, p := range []float64{0, 1, 25, 50, 75, 95, 99, 99.9, 100} {
		if got, want := merged.Percentile(p), whole.Percentile(p); got != want {
			t.Errorf("p%v: merged %v != whole %v", p, got, want)
		}
	}
}

// TestSketchMergeAccuracyMismatch checks the guard against merging sketches
// with different error bounds, which would silently corrupt percentiles.
func TestSketchMergeAccuracyMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("merging sketches with different alphas did not panic")
		}
	}()
	a, b := NewSketch(0.01), NewSketch(0.02)
	b.Add(1)
	a.Merge(b)
}

// TestSketchAddZeroAllocs pins the recording hot path at zero allocations
// once the bucket span has stabilized: the fleet engine calls Add once per
// request, a million-plus times per benchmark run.
func TestSketchAddZeroAllocs(t *testing.T) {
	sk := NewSketch(0)
	rng := rand.New(rand.NewSource(3))
	vals := make([]float64, 256)
	for i := range vals {
		vals[i] = math.Exp(rng.NormFloat64() * 3)
	}
	for _, v := range vals {
		sk.Add(v) // discover the bucket span
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for _, v := range vals {
			sk.Add(v)
		}
		sk.AddDuration(3 * time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("Sketch.Add allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestNewSummaryDoesNotMutateCaller pins the ownership contract fixed in
// this package: order statistics on a NewSummary-built summary must not
// reorder (or otherwise change) the caller's slice.
func TestNewSummaryDoesNotMutateCaller(t *testing.T) {
	caller := []float64{9, 1, 7, 3, 5}
	orig := append([]float64(nil), caller...)
	s := NewSummary(caller)
	_ = s.Percentile(50)
	_ = s.Percentile(0)
	_ = s.Median()
	for i := range caller {
		if caller[i] != orig[i] {
			t.Fatalf("caller slice mutated at %d: %v, want %v", i, caller, orig)
		}
	}
	if got, want := s.Percentile(50), 5.0; got != want {
		t.Fatalf("Percentile(50) = %v, want %v", got, want)
	}
	// Samples preserves insertion order too.
	s.Add(2)
	got := s.samples
	want := []float64{9, 1, 7, 3, 5, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Samples() = %v, want %v", got, want)
		}
	}
	if got, want := s.Percentile(0), 1.0; got != want {
		t.Fatalf("p0 after Add = %v, want %v", got, want)
	}
}
