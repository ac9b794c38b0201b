package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran out of order: %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30ns", e.Now())
	}
}

func TestEngineTieBreaksBySchedulingOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events ran out of scheduling order: %v", order)
		}
	}
}

func TestEngineAfterIsRelative(t *testing.T) {
	e := NewEngine()
	var fired Time
	e.At(100, func() {
		e.After(50*time.Nanosecond, func() { fired = e.Now() })
	})
	e.Run()
	if fired != 150 {
		t.Fatalf("After fired at %v, want 150ns", fired)
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestEngineRunUntilStopsAtDeadline(t *testing.T) {
	e := NewEngine()
	var ran []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.At(at, func() { ran = append(ran, at) })
	}
	e.RunUntil(25)
	if len(ran) != 2 {
		t.Fatalf("ran %v events before deadline, want 2", len(ran))
	}
	if e.Now() != 25 {
		t.Fatalf("clock = %v after RunUntil(25)", e.Now())
	}
	e.Run()
	if len(ran) != 4 {
		t.Fatalf("remaining events lost: ran %d total", len(ran))
	}
}

func TestEngineRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine()
	e.RunUntil(1000)
	if e.Now() != 1000 {
		t.Fatalf("idle RunUntil left clock at %v", e.Now())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	e.At(1, func() { count++; e.Stop() })
	e.At(2, func() { count++ })
	e.Run()
	if count != 1 {
		t.Fatalf("Stop did not halt the engine: %d events ran", count)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d after Stop, want 1", e.Pending())
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var schedule func()
	schedule = func() {
		depth++
		if depth < 100 {
			e.After(1, schedule)
		}
	}
	e.At(0, schedule)
	e.Run()
	if depth != 100 {
		t.Fatalf("nested scheduling depth = %d, want 100", depth)
	}
	if e.Now() != 99 {
		t.Fatalf("clock = %v, want 99ns", e.Now())
	}
}

func TestMeterTotalAndPhases(t *testing.T) {
	m := NewMeter()
	m.BeginPhase("scan")
	m.Charge(10)
	m.Charge(5)
	m.BeginPhase("copy")
	m.Charge(7)
	m.BeginPhase("")
	m.Charge(3)
	if m.Total() != 25 {
		t.Fatalf("total = %v, want 25", m.Total())
	}
	if m.Phase("scan") != 15 || m.Phase("copy") != 7 {
		t.Fatalf("phases wrong: scan=%v copy=%v", m.Phase("scan"), m.Phase("copy"))
	}
	names := m.Phases()
	if len(names) != 2 || names[0] != "copy" || names[1] != "scan" {
		t.Fatalf("phase names = %v", names)
	}
}

func TestMeterReset(t *testing.T) {
	m := NewMeter()
	m.ChargePhase("x", 9)
	m.Reset()
	if m.Total() != 0 || m.Phase("x") != 0 {
		t.Fatal("Reset did not clear meter")
	}
}

func TestMeterNegativeChargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative charge did not panic")
		}
	}()
	NewMeter().Charge(-1)
}

func TestChargeToNilIsSafe(t *testing.T) {
	ChargeTo(nil, 5)
	m := NewMeter()
	ChargeTo(m, 5)
	if m.Total() != 5 {
		t.Fatalf("nil-safe helper miscounted: total=%v", m.Total())
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different sequences")
		}
	}
	c := NewRand(43)
	same := true
	a = NewRand(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical prefixes")
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRandNormalMoments(t *testing.T) {
	r := NewRand(11)
	const n = 20000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Normal(10, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if mean < 9.9 || mean > 10.1 {
		t.Fatalf("normal mean = %v, want ~10", mean)
	}
	if variance < 3.5 || variance > 4.5 {
		t.Fatalf("normal variance = %v, want ~4", variance)
	}
}

func TestRandJitterPositive(t *testing.T) {
	r := NewRand(3)
	for i := 0; i < 1000; i++ {
		if d := r.Jitter(time.Millisecond, 0.5); d <= 0 {
			t.Fatalf("jittered duration non-positive: %v", d)
		}
	}
}

func TestRandIntnBounds(t *testing.T) {
	r := NewRand(5)
	if err := quick.Check(func(span uint16) bool {
		n := int(span%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// The engine's clock must be monotonic across arbitrary interleavings of At
// and After — a property test over random schedules.
func TestEngineMonotonicProperty(t *testing.T) {
	if err := quick.Check(func(delays []uint16) bool {
		e := NewEngine()
		last := Time(-1)
		ok := true
		for _, d := range delays {
			d := Duration(d)
			e.After(d, func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return ok
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
