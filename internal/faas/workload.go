package faas

import (
	"fmt"

	"groundhog/internal/sim"
)

// RunClosedLoop drives the platform's first container with a closed-loop,
// one-at-a-time client: each request is submitted `think` after the previous
// response (the paper's low-load latency workload, §5.2.1/§5.3). With the
// think time in place, restoration normally completes off the critical path;
// if a restore is still running when the next request arrives, the request
// is buffered until the container is clean again (§4.5) and the wait shows
// up in its E2E latency.
//
// One unrecorded warm-up request precedes the measurement: the first request
// after a snapshot pays the full set of one-time soft-dirty arming faults,
// which the paper's 1,200-invocation averages amortize away. It is
// RunCallers with one anonymous caller per request, warm-up included, so it
// too serves through InvokeOnce.
func (pl *Platform) RunClosedLoop(requests int, think sim.Duration) ([]RequestStats, error) {
	if len(pl.containers) < 1 {
		return nil, ErrNoContainers
	}
	if requests <= 0 {
		return nil, nil
	}
	out, err := pl.RunCallers(make([]string, requests+1), think)
	if len(out) > 0 {
		out = out[1:] // the warm-up
	}
	return out, err
}

// RunCallers drives the first container with a closed-loop client, one
// request per entry of callers, each through InvokeOnce, the path the live
// plane serves on. A request that finds a restore still running waits for
// it, and the wait counts in its E2E; the next request goes out `think`
// after the response. With Platform.TrustSameCaller set, consecutive
// requests from the same principal skip the rollback, and a change of
// principal pays the deferred restore before executing (§4.4). A failure
// ends the loop with the stats so far: ErrNoContainers once a restore fault
// has removed the container.
func (pl *Platform) RunCallers(callers []string, think sim.Duration) ([]RequestStats, error) {
	if len(pl.containers) < 1 {
		return nil, ErrNoContainers
	}
	if len(callers) == 0 {
		return nil, fmt.Errorf("faas: empty caller sequence")
	}
	out := make([]RequestStats, 0, len(callers))
	for _, caller := range callers {
		wait := sim.Duration(0)
		if len(pl.containers) > 0 {
			if ready := pl.containers[0].ready; ready > pl.Engine.Now() {
				wait = ready.Sub(pl.Engine.Now())
			}
		}
		st, err := pl.InvokeOnce(caller)
		if err != nil {
			return out, err
		}
		st.E2E += wait
		out = append(out, st)
		pl.Engine.RunUntil(st.Completed.Add(think))
	}
	return out, nil
}

// ThroughputResult reports a saturation run.
type ThroughputResult struct {
	// RequestsPerSec is the sustained completion rate over the measured
	// window (warm-up excluded).
	RequestsPerSec float64
	// Elapsed is the measured window in virtual time.
	Elapsed sim.Duration
	// Stats carries the per-request records (all containers interleaved).
	Stats []RequestStats
}

// RunSaturated drives every container back-to-back — a new request is
// admitted to a container the moment it is ready again — and measures the
// sustained completion rate, like the paper's peak-throughput workload
// (§5.2.2). perContainer requests are measured on each container after one
// warm-up request. Each container's rate is measured over its own window
// (containers may come up staggered by cold-start jitter) and the platform
// rate is their sum.
func (pl *Platform) RunSaturated(perContainer int) (ThroughputResult, error) {
	if perContainer < 1 {
		return ThroughputResult{}, fmt.Errorf("faas: need at least one request per container")
	}
	var res ThroughputResult
	var err error

	type window struct {
		start, end sim.Time
		count      int
	}
	windows := make([]window, len(pl.containers))

	for i, c := range pl.containers {
		i, c := i, c
		done := 0
		var loop func()
		loop = func() {
			if err != nil || done > perContainer {
				return
			}
			wait := sim.Duration(0)
			if c.ready > pl.Engine.Now() {
				wait = c.ready.Sub(pl.Engine.Now())
			}
			pl.Engine.After(wait, func() {
				st, serr := pl.Serve(c, "")
				if serr != nil {
					err = serr
					pl.Engine.Stop()
					return
				}
				done++
				if done == 1 {
					// Warm-up request: opens this container's window.
					windows[i].start = st.ReadyAgain
				} else {
					res.Stats = append(res.Stats, st)
					windows[i].end = st.ReadyAgain
					windows[i].count++
				}
				pl.Engine.At(st.ReadyAgain, loop)
			})
		}
		pl.Engine.After(0, loop)
	}
	pl.Engine.Run()
	if err != nil {
		return ThroughputResult{}, err
	}
	for _, w := range windows {
		if span := w.end.Sub(w.start); span > 0 && w.count > 0 {
			res.RequestsPerSec += float64(w.count) / span.Seconds()
			if sim.Duration(span) > res.Elapsed {
				res.Elapsed = span
			}
		}
	}
	return res, nil
}
