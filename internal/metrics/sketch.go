package metrics

import (
	"fmt"
	"math"
	"time"
)

// Recorder is the sample-recording surface shared by Summary and Sketch.
// Code that only records values and reads summary statistics (the fleet's
// per-function latency accounting) is written against Recorder, so the
// exact, sample-retaining Summary serves small-N experiment paths and the
// bounded-memory Sketch serves million-request simulations, chosen by
// configuration rather than by code shape.
type Recorder interface {
	Add(v float64)
	AddDuration(d time.Duration)
	N() int
	Mean() float64
	Percentile(p float64) float64
	Median() float64
	P99() float64
	P999() float64
	Min() float64
	Max() float64
}

// Pool merges same-kind recorders into one fresh recorder — how
// per-function latency records pool into fleet-wide percentiles. Summaries
// replay their retained samples into a new Summary, in argument order, so
// exact paths answer exactly what a single summary over the concatenated
// streams would. Sketches merge losslessly into a new Sketch (all inputs
// must share one accuracy). Nil recorders are skipped; mixing concrete
// kinds panics — pooling an exact path with an approximate one would
// silently degrade the exact answer.
func Pool(rs ...Recorder) Recorder {
	var sum *Summary
	var sk *Sketch
	for _, r := range rs {
		switch x := r.(type) {
		case nil:
		case *Summary:
			if sk != nil {
				panic("metrics: pooling Summary with Sketch")
			}
			if sum == nil {
				sum = &Summary{}
			}
			for _, v := range x.samples {
				sum.Add(v)
			}
		case *Sketch:
			if sum != nil {
				panic("metrics: pooling Summary with Sketch")
			}
			if sk == nil {
				sk = NewSketch(x.alpha)
			}
			sk.Merge(x)
		default:
			panic(fmt.Sprintf("metrics: pooling unknown recorder %T", r))
		}
	}
	if sk != nil {
		return sk
	}
	if sum == nil {
		sum = &Summary{}
	}
	return sum
}

var (
	_ Recorder = (*Summary)(nil)
	_ Recorder = (*Sketch)(nil)
)

// DefaultSketchAlpha is the relative accuracy a zero-configured Sketch
// guarantees on percentile estimates.
const DefaultSketchAlpha = 0.01

// sketchMinValue is the smallest magnitude the sketch distinguishes from
// zero: samples at or below it (latencies are never negative, but zero
// happens) collapse into an exact zero bucket.
const sketchMinValue = 1e-9

// Sketch is an incremental percentile estimator over non-negative samples
// with bounded memory and a relative error guarantee — a DDSketch-style
// log-bucketed histogram. A sample v lands in bucket ceil(log_gamma(v))
// with gamma = (1+alpha)/(1-alpha), so every bucket spans at most a
// (1±alpha) relative range and Percentile answers are within alpha of an
// exact nearest-rank percentile (the contract pinned by
// TestSketchPercentileErrorBound). Count, sum, min, and max are tracked
// exactly, so N, Mean, Min, and Max are not approximations.
//
// Memory is proportional to the dynamic range of the data, not the sample
// count: latencies spanning nanoseconds to hours fit in a couple of
// thousand buckets at the default 1% accuracy. Adding a sample is
// allocation-free once the bucket span has stabilized. Sketches with equal
// accuracy merge losslessly (Merge), which is how per-function sketches
// pool into fleet-wide percentiles.
//
// The zero value is not ready to use; call NewSketch.
type Sketch struct {
	alpha   float64
	gamma   float64
	lnGamma float64

	buckets []uint64 // buckets[i] counts samples in log bucket minIdx+i
	minIdx  int      // absolute log index of buckets[0]
	zero    uint64   // samples <= sketchMinValue

	count    uint64
	sum      float64
	min, max float64
}

// NewSketch returns an empty sketch with the given relative accuracy;
// alpha outside (0, 1) selects DefaultSketchAlpha.
func NewSketch(alpha float64) *Sketch {
	if alpha <= 0 || alpha >= 1 {
		alpha = DefaultSketchAlpha
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &Sketch{
		alpha:   alpha,
		gamma:   gamma,
		lnGamma: math.Log(gamma),
		min:     math.Inf(1),
		max:     math.Inf(-1),
	}
}

// Add records one sample. Negative samples are treated as zero (the
// recorded statistics are latencies and counts, which cannot be negative).
func (s *Sketch) Add(v float64) {
	if v < 0 {
		v = 0
	}
	s.count++
	s.sum += v
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	if v <= sketchMinValue {
		s.zero++
		return
	}
	s.bump(int(math.Ceil(math.Log(v) / s.lnGamma)))
}

// AddDuration records a duration sample in milliseconds.
func (s *Sketch) AddDuration(d time.Duration) {
	s.Add(float64(d) / float64(time.Millisecond))
}

// bump increments the bucket at absolute log index idx, growing the bucket
// span when idx falls outside it. Growth over-allocates a little slack so a
// distribution discovering its range settles quickly into zero-allocation
// adds.
func (s *Sketch) bump(idx int) {
	if s.buckets == nil {
		s.buckets = make([]uint64, 1, 64)
		s.minIdx = idx
		s.buckets[0] = 1
		return
	}
	const slack = 16
	if idx < s.minIdx {
		shift := s.minIdx - idx
		grown := make([]uint64, len(s.buckets)+shift+slack)
		copy(grown[shift+slack:], s.buckets)
		s.buckets = grown
		s.minIdx = idx - slack
	} else if idx >= s.minIdx+len(s.buckets) {
		need := idx - s.minIdx + 1
		if need > cap(s.buckets) {
			grown := make([]uint64, need+slack)
			copy(grown, s.buckets)
			s.buckets = grown
		} else {
			s.buckets = s.buckets[:need]
		}
	}
	s.buckets[idx-s.minIdx]++
}

// N returns the number of recorded samples.
func (s *Sketch) N() int { return int(s.count) }

// Mean returns the exact arithmetic mean (0 for no samples).
func (s *Sketch) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// Min returns the exact smallest sample (0 for no samples).
func (s *Sketch) Min() float64 {
	if s.count == 0 {
		return 0
	}
	return s.min
}

// Max returns the exact largest sample (0 for no samples).
func (s *Sketch) Max() float64 {
	if s.count == 0 {
		return 0
	}
	return s.max
}

// Percentile returns an estimate of the p-th percentile (0 <= p <= 100)
// under the nearest-rank convention: the returned value is within the
// sketch's relative accuracy of the sample at rank ceil(p/100 * N). The
// estimate is clamped to the exact [Min, Max], so single-sample and
// constant distributions answer exactly.
func (s *Sketch) Percentile(p float64) float64 {
	if s.count == 0 {
		return 0
	}
	if p <= 0 {
		return s.min
	}
	if p >= 100 {
		return s.max
	}
	rank := uint64(math.Ceil(p / 100 * float64(s.count)))
	if rank < 1 {
		rank = 1
	}
	cum := s.zero
	if cum >= rank {
		return 0
	}
	for i, c := range s.buckets {
		cum += c
		if cum >= rank {
			// Bucket idx covers (gamma^(idx-1), gamma^idx]; the midpoint
			// estimate 2*gamma^idx/(gamma+1) is within alpha of any value
			// in the bucket.
			est := 2 * math.Pow(s.gamma, float64(s.minIdx+i)) / (1 + s.gamma)
			if est < s.min {
				est = s.min
			}
			if est > s.max {
				est = s.max
			}
			return est
		}
	}
	return s.max
}

// Median returns the estimated 50th percentile.
func (s *Sketch) Median() float64 { return s.Percentile(50) }

// P99 returns the estimated 99th percentile.
func (s *Sketch) P99() float64 { return s.Percentile(99) }

// P999 returns the estimated 99.9th percentile.
func (s *Sketch) P999() float64 { return s.Percentile(99.9) }

// Merge folds other into s. Both sketches must have been created with the
// same accuracy; merging is lossless (the result is identical to having
// recorded both sample streams into one sketch).
func (s *Sketch) Merge(other *Sketch) {
	if other == nil || other.count == 0 {
		return
	}
	if s.gamma != other.gamma {
		panic("metrics: merging sketches with different accuracies")
	}
	s.count += other.count
	s.sum += other.sum
	s.zero += other.zero
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
	for i, c := range other.buckets {
		if c != 0 {
			s.bump(other.minIdx + i)
			s.buckets[other.minIdx+i-s.minIdx] += c - 1 // bump added 1
		}
	}
}

// Reset returns the sketch to empty, keeping its bucket storage for reuse.
func (s *Sketch) Reset() {
	for i := range s.buckets {
		s.buckets[i] = 0
	}
	s.zero, s.count, s.sum = 0, 0, 0
	s.min, s.max = math.Inf(1), math.Inf(-1)
}
