// Package sim provides the discrete-event simulation substrate used by the
// Groundhog reproduction: a virtual clock, an event engine, cost meters, and
// a deterministic random source.
//
// All latency and throughput numbers reported by this repository are measured
// in virtual time. Functional components (the simulated kernel, address
// spaces, the FaaS platform) never call time.Now; they charge costs to a
// Meter or schedule events on an Engine, which makes every experiment
// deterministic and independent of the host machine.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. Virtual time has no relation to wall-clock time.
type Time int64

// Duration re-exports time.Duration for readability: virtual durations use
// the same unit (nanoseconds) and formatting as real ones.
type Duration = time.Duration

// String formats the time as a duration since simulation start.
func (t Time) String() string { return time.Duration(t).String() }

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// event is a scheduled callback. Events at equal times fire in scheduling
// order (seq breaks ties), which keeps runs deterministic.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

// before orders events by (time, scheduling sequence).
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Engine is a single-threaded discrete-event executor. The zero value is
// ready to use. Engine is not safe for concurrent use; the simulation model
// is cooperative, with concurrency expressed as interleaved events.
//
// The event queue is a hand-rolled binary min-heap of event values: pushing
// reuses the slice's capacity and popping clears only the callback pointer,
// so steady-state scheduling — millions of schedule/fire pairs in a fleet
// simulation — performs no heap allocation (container/heap would box every
// *event through its interface{} Push/Pop). Pinned by
// TestEngineSteadyStateZeroAllocs.
type Engine struct {
	now     Time
	events  []event // binary min-heap ordered by before
	seq     uint64
	stopped bool
}

// siftUp restores the heap property after appending at index i.
func (e *Engine) siftUp(i int) {
	h := e.events
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// siftDown restores the heap property after replacing the root.
func (e *Engine) siftDown() {
	h := e.events
	n := len(h)
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h[l].before(&h[min]) {
			min = l
		}
		if r < n && h[r].before(&h[min]) {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// pop removes and returns the earliest event's callback, advancing the clock
// to its time.
func (e *Engine) pop() func() {
	n := len(e.events) - 1
	ev := e.events[0]
	e.events[0] = e.events[n]
	e.events[n].fn = nil // release the callback; the slot is reused
	e.events = e.events[:n]
	if n > 0 {
		e.siftDown()
	}
	e.now = ev.at
	return ev.fn
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at virtual time t. Scheduling in the past is a
// programming error and panics: the simulated world cannot rewrite history.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	e.events = append(e.events, event{at: t, seq: e.seq, fn: fn})
	e.siftUp(len(e.events) - 1)
}

// After schedules fn to run d after the current time. Negative d panics.
func (e *Engine) After(d Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.At(e.now.Add(d), fn)
}

// Run executes events in time order until none remain or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for len(e.events) > 0 && !e.stopped {
		e.pop()()
	}
}

// RunUntil executes events in time order until the queue is empty, Stop is
// called, or the next event lies after deadline. The clock is left at the
// deadline if it was reached, so subsequent scheduling is relative to it.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for len(e.events) > 0 && !e.stopped {
		if e.events[0].at > deadline {
			e.now = deadline
			return
		}
		e.pop()()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Stop halts Run/RunUntil after the currently executing event returns.
// Pending events remain queued.
func (e *Engine) Stop() { e.stopped = true }
