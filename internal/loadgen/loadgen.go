// Package loadgen drives a live gateway-fronted server — real listeners,
// real transports — and reports client-observed throughput and latency.
// It is the harness behind cmd/ghload.
//
// Two loop disciplines:
//
//   - closed loop: Workers goroutines, each firing its next request the
//     moment the previous response lands — measures the server's peak
//     sustainable throughput at a fixed concurrency;
//   - open loop: requests fire on an arrival process (the same
//     exponential/hyperexponential/diurnal draws the fleet simulator uses,
//     via trace.NewArrivalProcess), regardless of completions — measures
//     behavior under offered load, including the shed path when arrivals
//     outrun the admission queues.
//
// Every fired request is accounted into exactly one outcome class; Lost
// (fired minus accounted) is the harness-level invariant ghload's exit code
// pins at zero — a request the server swallowed without answering.
package loadgen

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"groundhog/internal/metrics"
	"groundhog/internal/sim"
	"groundhog/internal/trace"
)

// Class buckets one request's outcome.
type Class int

const (
	// ClassOK: served, echo verified.
	ClassOK Class = iota
	// ClassRejected: shed by admission control (429 / queue-full frame).
	ClassRejected
	// ClassTransient: invoke failed transiently (503 / transient frame).
	ClassTransient
	// ClassError: transport failure, unexpected status, or corrupt echo.
	ClassError
)

// Client issues one request at a time against the target; implementations
// are not safe for concurrent use — Run dials one per worker.
type Client interface {
	// Do sends body and classifies the response. err carries detail for
	// ClassError (and may annotate ClassTransient); it is nil for OK and
	// rejected outcomes.
	Do(body []byte) (Class, error)
	Close() error
}

// Dial creates a fresh client connection to the target.
type Dial func() (Client, error)

// Config parameterizes a load run.
type Config struct {
	Dial Dial
	// Closed selects the loop discipline: true runs Workers closed-loop
	// goroutines; false paces arrivals at Rate/Burstiness (open loop).
	Closed bool
	// Workers is the closed-loop concurrency (default 4).
	Workers int
	// Rate is the open-loop mean arrival rate per second.
	Rate float64
	// Burstiness is the open-loop interarrival CoV (0 or 1 = Poisson, >1
	// bursty), interpreted exactly as trace.FunctionLoad.Burstiness.
	Burstiness float64
	// Duration is the run length (default 2s).
	Duration time.Duration
	// Body is the request payload each request carries (echoed back and
	// verified by the transport clients).
	Body []byte
	// Seed feeds the open-loop arrival process.
	Seed uint64
	// Report, when non-nil, receives a live progress line every Interval
	// (default 1s).
	Report   io.Writer
	Interval time.Duration
}

// Result summarizes a run.
type Result struct {
	Requests  int           // fired
	OK        int           // served with verified echo
	Rejected  int           // shed by admission control
	Transient int           // transient server failures
	Errors    int           // transport errors / unexpected statuses
	Lost      int           // fired but never accounted — must be 0
	Wall      time.Duration // actual run length
	PerSec    float64       // OK responses per wall second
	// Client-observed latency of OK requests, milliseconds.
	P50Ms, P95Ms, P99Ms float64
}

// counters aggregates worker outcomes without locks on the request path.
type counters struct {
	fired, ok, rejected, transient, errs atomic.Int64
	firstErr                             atomic.Value // string
}

func (c *counters) account(cl Class, err error) {
	switch cl {
	case ClassOK:
		c.ok.Add(1)
	case ClassRejected:
		c.rejected.Add(1)
	case ClassTransient:
		c.transient.Add(1)
	default:
		c.errs.Add(1)
		if err != nil {
			c.firstErr.CompareAndSwap(nil, err.Error())
		}
	}
}

// Run executes one load run and blocks until every fired request is
// accounted.
func Run(cfg Config) (Result, error) {
	if cfg.Dial == nil {
		return Result{}, errors.New("loadgen: Config.Dial is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Second
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if !cfg.Closed && cfg.Rate <= 0 {
		return Result{}, errors.New("loadgen: open loop requires Rate > 0")
	}

	var cnt counters
	lat := metrics.Locked(metrics.NewSketch(metrics.DefaultSketchAlpha))
	stopReport := startReporter(cfg, &cnt, lat)

	start := time.Now()
	deadline := start.Add(cfg.Duration)
	var runErr error
	if cfg.Closed {
		runErr = runClosed(cfg, deadline, &cnt, lat)
	} else {
		runErr = runOpen(cfg, deadline, &cnt, lat)
	}
	wall := time.Since(start)
	stopReport()
	if runErr != nil {
		return Result{}, runErr
	}

	res := Result{
		Requests:  int(cnt.fired.Load()),
		OK:        int(cnt.ok.Load()),
		Rejected:  int(cnt.rejected.Load()),
		Transient: int(cnt.transient.Load()),
		Errors:    int(cnt.errs.Load()),
		Wall:      wall,
	}
	res.Lost = res.Requests - res.OK - res.Rejected - res.Transient - res.Errors
	if wall > 0 {
		res.PerSec = float64(res.OK) / wall.Seconds()
	}
	if lat.N() > 0 {
		res.P50Ms = lat.Median()
		res.P95Ms = lat.Percentile(95)
		res.P99Ms = lat.P99()
	}
	if msg, _ := cnt.firstErr.Load().(string); msg != "" {
		return res, fmt.Errorf("loadgen: %d request errors (first: %s)", res.Errors, msg)
	}
	return res, nil
}

// fire issues one request and accounts it.
func fire(c Client, body []byte, cnt *counters, lat metrics.Recorder) {
	cnt.fired.Add(1)
	t0 := time.Now()
	cl, err := c.Do(body)
	if cl == ClassOK {
		lat.Add(float64(time.Since(t0)) / 1e6)
	}
	cnt.account(cl, err)
}

// runClosed: Workers goroutines, back-to-back requests until the deadline.
func runClosed(cfg Config, deadline time.Time, cnt *counters, lat metrics.Recorder) error {
	var wg sync.WaitGroup
	dialErr := make(chan error, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := cfg.Dial()
			if err != nil {
				dialErr <- err
				return
			}
			defer c.Close()
			for time.Now().Before(deadline) {
				fire(c, cfg.Body, cnt, lat)
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-dialErr:
		return fmt.Errorf("loadgen: dial: %w", err)
	default:
		return nil
	}
}

// runOpen: one pacer draws interarrivals from the fleet's arrival process
// and fires each request in its own goroutine, reusing idle connections
// from a pool — arrivals never wait for completions.
func runOpen(cfg Config, deadline time.Time, cnt *counters, lat metrics.Recorder) error {
	ap := trace.NewArrivalProcess(trace.FunctionLoad{
		RatePerSec: cfg.Rate,
		Burstiness: cfg.Burstiness,
	}, cfg.Seed)

	pool := make(chan Client, 256)
	defer func() {
		for {
			select {
			case c := <-pool:
				c.Close()
			default:
				return
			}
		}
	}()

	var wg sync.WaitGroup
	var dialFailure atomic.Value // string
	start := time.Now()
	var elapsed time.Duration
	for {
		// Arrival offsets are simulated durations (ns); pace them in wall
		// time from the run's start to avoid drift accumulation. The
		// virtual clock fed back to the process keeps diurnal modulation
		// meaningful if a shaped load is ever configured.
		elapsed += time.Duration(ap.Next(sim.Time(elapsed)))
		if start.Add(elapsed).After(deadline) {
			break
		}
		time.Sleep(time.Until(start.Add(elapsed)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			var c Client
			select {
			case c = <-pool:
			default:
				var err error
				if c, err = cfg.Dial(); err != nil {
					dialFailure.CompareAndSwap(nil, err.Error())
					return
				}
			}
			fire(c, cfg.Body, cnt, lat)
			select {
			case pool <- c:
			default:
				c.Close()
			}
		}()
	}
	wg.Wait()
	if msg, _ := dialFailure.Load().(string); msg != "" {
		return fmt.Errorf("loadgen: dial: %s", msg)
	}
	return nil
}

// startReporter emits a live progress line every Interval; the returned
// stop func prints nothing further.
func startReporter(cfg Config, cnt *counters, lat metrics.Recorder) (stop func()) {
	if cfg.Report == nil {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(cfg.Interval)
		defer tick.Stop()
		start := time.Now()
		lastOK := int64(0)
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				ok := cnt.ok.Load()
				fmt.Fprintf(cfg.Report,
					"[loadgen] t=%4.1fs ok=%d (+%.0f/s) rejected=%d transient=%d errors=%d p50=%.2fms p95=%.2fms p99=%.2fms\n",
					time.Since(start).Seconds(), ok,
					float64(ok-lastOK)/cfg.Interval.Seconds(),
					cnt.rejected.Load(), cnt.transient.Load(), cnt.errs.Load(),
					lat.Median(), lat.Percentile(95), lat.P99())
				lastOK = ok
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}
