package sim

// Meter accumulates virtual cost. Functional components (address spaces,
// ptrace, pipes) charge their per-operation costs to a Meter; the event
// engine later advances the clock by the metered total. Separating metering
// from the clock keeps the functional layer synchronous and easy to test.
//
// A composite operation that reports a per-phase breakdown (a Groundhog
// restore, Fig. 8 of the paper) owns its phase durations and points the
// meter at one of them with Attribute: every charge then lands in the total
// and in that phase, a pair of adds with no lookup and no allocation. The
// zero Meter is empty and unattributed.
type Meter struct {
	total Duration
	phase *Duration // also receives every charge; nil when unattributed
}

// NewMeter returns an empty meter.
func NewMeter() *Meter { return &Meter{} }

// Charge adds d to the running total (and to the attributed phase, if one
// is set). Negative charges panic: costs only accrue.
func (m *Meter) Charge(d Duration) {
	if d < 0 {
		panic("sim: negative charge")
	}
	m.total += d
	if m.phase != nil {
		*m.phase += d
	}
}

// Attribute directs subsequent charges into *phase as well as the total.
// Passing nil ends attribution.
func (m *Meter) Attribute(phase *Duration) { m.phase = phase }

// Total returns the accumulated cost.
func (m *Meter) Total() Duration { return m.total }

// Reset clears the total and ends attribution.
func (m *Meter) Reset() { *m = Meter{} }

// ChargeTo is a nil-safe charge helper: components accept *Meter and callers
// that do not care about cost may pass nil.
func ChargeTo(m *Meter, d Duration) {
	if m != nil {
		m.Charge(d)
	}
}
