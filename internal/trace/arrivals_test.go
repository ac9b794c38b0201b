package trace

import (
	"math"
	"testing"
	"time"

	"groundhog/internal/sim"
)

// TestArrivalProcessMatchesFleetDraws pins the extraction: a standalone
// ArrivalProcess must reproduce, draw for draw, what a fleet fnState with
// the same load and RNG stream would schedule. The fleet baselines depend on
// this stream staying put, so any divergence here is a baseline break.
func TestArrivalProcessMatchesFleetDraws(t *testing.T) {
	for _, load := range []FunctionLoad{
		{RatePerSec: 100},
		{RatePerSec: 40, Burstiness: 4},
		{RatePerSec: 250, Burstiness: 1.5,
			DiurnalAmplitude: 0.5, DiurnalPeriod: sim.Duration(10 * time.Second)},
	} {
		ap := NewArrivalProcess(load, 42)
		fs := &fnState{load: load, rng: sim.NewRand(42)}
		var now sim.Time
		for i := 0; i < 1000; i++ {
			want := drawInterarrival(fs.load, fs.rng, now)
			// The draw consumed the fleet stream; the process
			// holds its own identical stream.
			got := ap.Next(now)
			if got != want {
				t.Fatalf("load %+v draw %d: process %v, fleet %v", load, i, got, want)
			}
			now = now.Add(got)
		}
	}
}

// TestArrivalProcessMeanRate: over many draws the empirical rate must sit
// near RatePerSec for both the exponential and the hyperexponential shapes
// (the mixture is mean-preserving), and the bursty stream must show a
// higher interarrival CoV than Poisson.
func TestArrivalProcessMeanRate(t *testing.T) {
	const n = 200000
	measure := func(load FunctionLoad) (ratePerSec, cov float64) {
		ap := NewArrivalProcess(load, 7)
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			g := float64(ap.Next(0))
			sum += g
			sumSq += g * g
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		return 1e9 / mean, math.Sqrt(variance) / mean
	}

	poisRate, poisCov := measure(FunctionLoad{RatePerSec: 120})
	if math.Abs(poisRate-120)/120 > 0.02 {
		t.Fatalf("poisson empirical rate %.2f/s, want ~120/s", poisRate)
	}
	if math.Abs(poisCov-1) > 0.05 {
		t.Fatalf("poisson interarrival CoV %.3f, want ~1", poisCov)
	}

	burstRate, burstCov := measure(FunctionLoad{RatePerSec: 120, Burstiness: 4})
	if math.Abs(burstRate-120)/120 > 0.05 {
		t.Fatalf("bursty empirical rate %.2f/s, want ~120/s (mixture must preserve the mean)", burstRate)
	}
	if burstCov < 2 {
		t.Fatalf("bursty interarrival CoV %.3f, want >> 1", burstCov)
	}
}

// TestArrivalProcessDeterminism: equal (load, seed) pairs replay the same
// gap sequence; different seeds diverge.
func TestArrivalProcessDeterminism(t *testing.T) {
	load := FunctionLoad{RatePerSec: 80, Burstiness: 2}
	a, b, c := NewArrivalProcess(load, 9), NewArrivalProcess(load, 9), NewArrivalProcess(load, 10)
	same, diff := true, false
	for i := 0; i < 100; i++ {
		ga, gb, gc := a.Next(0), b.Next(0), c.Next(0)
		if ga != gb {
			same = false
		}
		if ga != gc {
			diff = true
		}
	}
	if !same {
		t.Fatal("equal seeds diverged")
	}
	if !diff {
		t.Fatal("distinct seeds never diverged")
	}
}
