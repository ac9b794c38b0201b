package trace

import (
	"errors"

	"groundhog/internal/faas"
	"groundhog/internal/faults"
	"groundhog/internal/kernel"
	"groundhog/internal/runtimes"
	"groundhog/internal/sim"
)

// Provider is the Dispatcher's one seam: where a function's container pools
// live and how one more container for it is obtained — on which pool, by
// which start path, at what extra delay. Everything else (queueing, serving,
// reaping, signals, stats) is the Dispatcher's and identical for every
// provider. Functions are named by their index in the loads.
//
// The contract:
//
//   - Deploy is called once per function, in index order, while the
//     Dispatcher is built. It returns the function's pools in scan order; the
//     Dispatcher keeps that slice for the whole run, always scans it front to
//     back (first ready container wins, first idle container is reaped
//     first) and skips nil slots. A provider that creates pools lazily
//     therefore returns one slot per place a pool may appear and fills slots
//     in place as it creates them; it must not reorder or shrink the slice.
//     Pre-warmed containers are the provider's business.
//   - ScaleUp adds exactly one container, cold-starting at now, to one of
//     fn's pools (creating the pool if need be) and returns it with every
//     provider-side charge already applied to its ColdStart() and Ready().
//     The Dispatcher records the cold start in the function's stats,
//     schedules the wake-up at the container's Ready(), and never adds a
//     container any other way. An error that faas.IsTransient accepts, or
//     that wraps ErrNoCapacity, means "not now": the queue is held and
//     re-dispatched after a backoff. Any other error ends the run.
//   - FramesInUse is the live frame count summed over every physical memory
//     the provider's pools sit on; the Dispatcher samples it at policy ticks
//     (MeanFrames, the sampled peak) and reads it after the drain and after
//     Teardown.
type Provider interface {
	Deploy(fn int, prof runtimes.Profile, seed uint64) ([]*faas.Platform, error)
	ScaleUp(fn int, now sim.Time) (*faas.Container, error)
	FramesInUse() int
}

// ErrNoCapacity is the transient error a Provider's ScaleUp wraps when there
// is nowhere to put a container right now (every live host is full) but
// there will be: the Dispatcher backs off and retries instead of failing
// the run.
var ErrNoCapacity = errors.New("trace: no capacity for a scale-up right now")

// oneHost is the Fleet's Provider, the seam's trivial instance: every
// function has exactly one pool on the one shared kernel, created at
// deployment with its warm-floor container, and a scale-up is AddContainer
// on it.
type oneHost struct {
	engine *sim.Engine
	kern   *kernel.Kernel
	cfg    Config
	pools  []*faas.Platform // by function index
}

func (h *oneHost) Deploy(fn int, prof runtimes.Profile, seed uint64) ([]*faas.Platform, error) {
	// Zero constructor containers so the store kind can be set first; the
	// warm floor is added explicitly (pre-warmed, like the constructor path).
	pl, err := faas.NewPlatformOn(h.engine, h.kern, prof, h.cfg.Mode, 0, seed)
	if err != nil {
		return nil, err
	}
	pl.Store = h.cfg.Store
	pl.CloneScaleOut = h.cfg.CloneScaleOut
	if _, err := pl.AddWarmContainer(); err != nil {
		return nil, err
	}
	h.pools = append(h.pools, pl)
	return []*faas.Platform{pl}, nil
}

func (h *oneHost) ScaleUp(fn int, _ sim.Time) (*faas.Container, error) {
	return h.pools[fn].AddContainer()
}

func (h *oneHost) FramesInUse() int { return h.kern.Phys.InUse() }

// Fleet is the Dispatcher on one simulated host: every deployed function
// shares one kernel (and so one physical memory and one fault injector) and
// has a single pool on it.
type Fleet struct {
	*Dispatcher
	kern *kernel.Kernel
}

// NewFleet deploys the given functions (one warm container each — providers
// keep a floor of pre-warmed capacity) on a shared simulated host.
func NewFleet(cfg Config, loads []FunctionLoad) (*Fleet, error) {
	host := &oneHost{engine: sim.NewEngine(), kern: kernel.New(cfg.Cost), cfg: cfg}
	// Arm the shared kernel's fault seams. A zero plan yields a nil injector,
	// so a fault-free fleet stays bit-identical to one without the field.
	host.kern.Faults = faults.New(cfg.Faults)
	d, err := NewDispatcher(host.engine, cfg, loads, host)
	if err != nil {
		return nil, err
	}
	return &Fleet{Dispatcher: d, kern: host.kern}, nil
}

// Run executes the configured window. With one physical memory the peak is
// exact: Result.PeakFrames is the kernel's own high-water mark rather than
// the Dispatcher's tick-sampled one.
func (f *Fleet) Run() (*Result, error) {
	res, err := f.Dispatcher.Run()
	if err != nil {
		return nil, err
	}
	res.PeakFrames = f.kern.Phys.Peak()
	return res, nil
}
