package sim

import "sort"

// Meter accumulates virtual cost. Functional components (address spaces,
// ptrace, pipes) charge their per-operation costs to a Meter; the event
// engine later advances the clock by the metered total. Separating metering
// from the clock keeps the functional layer synchronous and easy to test.
//
// A Meter also keeps named sub-accounts so composite operations (such as a
// Groundhog restore) can report a per-phase breakdown, as in Fig. 8 of the
// paper. The accounts live in a small ordered slice rather than a map:
// phase names per meter number about a dozen, BeginPhase resolves the name
// to an index once, and the Charge calls on the simulation's hot paths are
// then a pair of integer adds — no hashing, no allocation.
type Meter struct {
	total   Duration
	names   []string   // phase names, in first-use order
	amounts []Duration // amounts[i] accumulates charges to names[i]
	current int        // index into names, or -1 when unattributed
}

// NewMeter returns an empty meter.
func NewMeter() *Meter { return &Meter{current: -1} }

// phaseIndex returns the account index for a name, adding an account on
// first use.
func (m *Meter) phaseIndex(phase string) int {
	for i, n := range m.names {
		if n == phase {
			return i
		}
	}
	m.names = append(m.names, phase)
	m.amounts = append(m.amounts, 0)
	return len(m.names) - 1
}

// Charge adds d to the running total (and to the current phase, if one is
// set). Negative charges panic: costs only accrue.
func (m *Meter) Charge(d Duration) {
	if d < 0 {
		panic("sim: negative charge")
	}
	m.total += d
	if m.current >= 0 {
		m.amounts[m.current] += d
	}
}

// ChargePhase adds d to the named phase without changing the current phase.
func (m *Meter) ChargePhase(phase string, d Duration) {
	if d < 0 {
		panic("sim: negative charge")
	}
	m.total += d
	m.amounts[m.phaseIndex(phase)] += d
}

// BeginPhase directs subsequent Charge calls into the named account.
// Passing "" ends phase attribution.
func (m *Meter) BeginPhase(phase string) {
	if phase == "" {
		m.current = -1
		return
	}
	m.current = m.phaseIndex(phase)
}

// Total returns the accumulated cost.
func (m *Meter) Total() Duration { return m.total }

// Phase returns the accumulated cost of a named phase.
func (m *Meter) Phase(name string) Duration {
	for i, n := range m.names {
		if n == name {
			return m.amounts[i]
		}
	}
	return 0
}

// Phases returns the phase names with non-zero cost in sorted order.
func (m *Meter) Phases() []string {
	names := make([]string, 0, len(m.names))
	for i, n := range m.names {
		if m.amounts[i] > 0 {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// Reset clears the total and all phases. The phase accounts themselves are
// kept (zeroed), so a meter reused across restores never re-allocates.
func (m *Meter) Reset() {
	m.total = 0
	m.current = -1
	for i := range m.amounts {
		m.amounts[i] = 0
	}
}

// ChargeTo is a nil-safe charge helper: components accept *Meter and callers
// that do not care about cost may pass nil.
func ChargeTo(m *Meter, d Duration) {
	if m != nil {
		m.Charge(d)
	}
}
