package sim

import (
	"testing"
	"time"
)

// TestEngineSteadyStateZeroAllocs pins the event engine's scheduling hot
// path at zero allocations per schedule/fire pair once the heap slice has
// reached its working capacity: a fleet simulation schedules millions of
// events, and every one of them must reuse the queue's storage.
func TestEngineSteadyStateZeroAllocs(t *testing.T) {
	e := NewEngine()
	nop := func() {}
	// Prime the queue's capacity past anything the measured loop needs.
	for i := 0; i < 64; i++ {
		e.After(Duration(i)*time.Microsecond, nop)
	}
	e.Run()

	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 32; i++ {
			e.After(Duration(i)*time.Microsecond, nop)
		}
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("engine schedule/fire allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestMeterSteadyStateZeroAllocs pins metering at zero allocations, phase
// attribution included: Charge on the fault and restore paths runs millions
// of times per simulated second.
func TestMeterSteadyStateZeroAllocs(t *testing.T) {
	var m Meter
	var phases [2]Duration
	allocs := testing.AllocsPerRun(1000, func() {
		m.Reset()
		m.Attribute(&phases[0])
		m.Charge(time.Microsecond)
		m.Attribute(&phases[1])
		m.Charge(time.Microsecond)
		m.Attribute(nil)
		m.Charge(time.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("meter charging allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestMeterPhaseAccounting: attribution follows Attribute, charges outside
// any phase reach only the total, and Reset ends attribution — a charge
// after it never lands in a phase the caller has moved on from.
func TestMeterPhaseAccounting(t *testing.T) {
	var m Meter // the zero value is usable
	var x, y Duration
	m.Charge(1) // unattributed
	m.Attribute(&x)
	m.Charge(2)
	m.Attribute(&y)
	m.Charge(5)
	m.Attribute(&x)
	m.Charge(3)
	m.Attribute(nil)
	m.Charge(7)
	if got := m.Total(); got != 18 {
		t.Fatalf("Total = %v, want 18", got)
	}
	if x != 5 || y != 5 {
		t.Fatalf("phases x=%v y=%v, want 5 and 5", x, y)
	}
	m.Attribute(&x)
	m.Reset()
	if m.Total() != 0 {
		t.Fatalf("Reset left total %v", m.Total())
	}
	m.Charge(4)
	if x != 5 {
		t.Fatalf("post-Reset Charge attributed to stale phase: x=%v", x)
	}
}
