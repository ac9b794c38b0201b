// Package isolation defines the sequential request isolation strategies the
// paper evaluates, behind one interface:
//
//   - Base:  no isolation — the insecure container-reuse baseline (BASE).
//   - GH:    Groundhog snapshot/restore (the paper's contribution).
//   - GHNop: Groundhog attached but never restoring — the trusted-caller
//     optimization and the configuration that isolates tracking cost (GH̶NOP).
//   - Fork:  serve each request in a freshly forked child (§5.2.3);
//     single-threaded runtimes only.
//   - Faasm: WebAssembly-style linear-memory remapping (§5.3.3).
//
// A Strategy brackets request execution: BeginRequest returns the process
// the request must run in (and may add critical-path cost, e.g. fork);
// EndRequest runs after the response has been returned and reports the
// off-critical-path cleanup duration (e.g. Groundhog's restore).
package isolation

import (
	"fmt"
	"time"

	"groundhog/internal/core"
	"groundhog/internal/kernel"
	"groundhog/internal/sim"
)

// Mode names a strategy, using the paper's configuration labels.
type Mode string

// The evaluated configurations.
const (
	ModeBase  Mode = "base"
	ModeGH    Mode = "gh"
	ModeGHNop Mode = "gh-nop"
	ModeFork  Mode = "fork"
	ModeFaasm Mode = "faasm"
)

// Modes lists all configurations in the paper's presentation order.
var Modes = []Mode{ModeBase, ModeGHNop, ModeGH, ModeFork, ModeFaasm}

// CleanupResult reports the off-critical-path work done after a request.
type CleanupResult struct {
	// Duration is the virtual time the container is unavailable after
	// returning a response (restore / child teardown / reset).
	Duration sim.Duration
	// Restore carries Groundhog's per-phase breakdown when applicable.
	Restore core.RestoreStats
	// Restored reports whether state was actually rolled back.
	Restored bool
}

// Strategy brackets request execution in a container.
type Strategy interface {
	Mode() Mode
	// Init runs once after the runtime is warmed (dummy request executed).
	// It returns the setup duration (snapshotting for GH, nothing for
	// BASE), which extends container initialization, off any request's
	// critical path.
	Init() (sim.Duration, error)
	// BeginRequest returns the process to run the request in, charging any
	// critical-path setup (fork) to meter.
	BeginRequest(meter *sim.Meter) (*kernel.Process, error)
	// EndRequest cleans up after the response has been returned.
	EndRequest() (CleanupResult, error)
	// Interposes reports whether the strategy proxies request input and
	// output through a manager process (§4.5).
	Interposes() bool
	// CanSkipCleanup reports whether the strategy may safely skip
	// EndRequest between consecutive requests from mutually trusting
	// callers (§4.4's optimization). Fork-based isolation cannot: its
	// per-request child must be reaped regardless of trust.
	CanSkipCleanup() bool
	// Manager returns the Groundhog manager behind the strategy — the holder
	// of the snapshot sibling containers are cloned from and of the state
	// store §5.5 sizes — or nil for BASE and fork, which have neither.
	Manager() *core.Manager
	// Release returns whatever the strategy holds beyond the function process
	// itself to the kernel: the manager's snapshot frame references, or a
	// fork child orphaned mid-request. The platform calls it when the
	// container is torn down (the process's own memory is freed separately by
	// the kernel's exit).
	Release()
}

// managed reports whether mode runs on a core.Manager. BASE has no snapshot
// and fork-based isolation re-forks from the warm parent per request.
func (m Mode) managed() bool {
	return m == ModeGH || m == ModeGHNop || m == ModeFaasm
}

// NewCloned constructs the strategy for mode over a fresh process cloned
// from img: the process maps the image's frames copy-on-write and its
// manager already holds the snapshot, so Init must NOT be called — the
// container is serve-ready at a small fraction of the full cold-start cost.
// Clone charges (spawn-from-image, seize, tracking re-arm) go to meter.
func NewCloned(mode Mode, k *kernel.Kernel, img *core.SnapshotImage, meter *sim.Meter) (Strategy, *kernel.Process, error) {
	if !mode.managed() {
		return nil, nil, fmt.Errorf("isolation: mode %q does not support snapshot cloning", mode)
	}
	m, err := core.NewManagerFromSnapshot(k, img, core.DefaultOptions(), meter)
	if err != nil {
		return nil, nil, err
	}
	return &managedStrategy{mode: mode, kern: k, manager: m}, m.Process(), nil
}

// New constructs the strategy for mode over the warm function process p,
// using the default eager-copy StateStore for snapshotting strategies.
func New(mode Mode, k *kernel.Kernel, p *kernel.Process) (Strategy, error) {
	return NewWithStore(mode, k, p, core.StoreCopy)
}

// NewWithStore is New with an explicit StateStore implementation (§5.5) for
// the snapshotting strategies (GH, GH-NOP, FAASM); BASE and fork take no
// snapshot and ignore it.
func NewWithStore(mode Mode, k *kernel.Kernel, p *kernel.Process, store core.StoreKind) (Strategy, error) {
	switch {
	case mode == ModeBase:
		return &baseStrategy{proc: p}, nil
	case mode == ModeFork:
		return newForkStrategy(k, p)
	case mode.managed():
		opts := core.DefaultOptions()
		opts.Store = store
		m, err := core.NewManager(k, p, opts)
		if err != nil {
			return nil, err
		}
		return &managedStrategy{mode: mode, kern: k, manager: m}, nil
	default:
		return nil, fmt.Errorf("isolation: unknown mode %q", mode)
	}
}

// baseStrategy is the insecure baseline: plain container reuse.
type baseStrategy struct {
	proc *kernel.Process
}

func (s *baseStrategy) Mode() Mode                  { return ModeBase }
func (s *baseStrategy) CanSkipCleanup() bool        { return true }
func (s *baseStrategy) Init() (sim.Duration, error) { return 0, nil }
func (s *baseStrategy) Interposes() bool            { return false }
func (s *baseStrategy) Manager() *core.Manager      { return nil }
func (s *baseStrategy) Release()                    {}

func (s *baseStrategy) BeginRequest(*sim.Meter) (*kernel.Process, error) {
	return s.proc, nil
}

func (s *baseStrategy) EndRequest() (CleanupResult, error) {
	return CleanupResult{}, nil
}

// managedStrategy is a core.Manager behind the Strategy interface, three ways
// by mode. GH restores after every request. GH-NOP takes the snapshot and
// proxies requests but never rolls state back — appropriate when consecutive
// callers mutually trust each other (§4.4), and useful to separate tracking
// cost from restoration cost (§5.1). FAASM models the Faaslet reset: the
// function's linear memory is remapped copy-on-write to a checkpointed state
// between requests. Its functional rollback is Groundhog's (the state store
// is the simulated equivalent of the checkpointed heap); its price is FAASM's
// — a cheap base remap plus a per-dirty-page repair, with no full pagemap
// scan — and requests are not proxied through the manager. Execution-speed
// differences (native vs WebAssembly) are applied by the runtime layer, not
// here.
type managedStrategy struct {
	mode    Mode
	kern    *kernel.Kernel
	manager *core.Manager
}

func (s *managedStrategy) Mode() Mode             { return s.mode }
func (s *managedStrategy) Interposes() bool       { return s.mode != ModeFaasm }
func (s *managedStrategy) CanSkipCleanup() bool   { return true }
func (s *managedStrategy) Manager() *core.Manager { return s.manager }
func (s *managedStrategy) Release()               { s.manager.Release() }

func (s *managedStrategy) Init() (sim.Duration, error) {
	stats, err := s.manager.TakeSnapshot()
	if err != nil {
		return 0, err
	}
	return stats.Duration, nil
}

func (s *managedStrategy) BeginRequest(*sim.Meter) (*kernel.Process, error) {
	if !s.manager.HasSnapshot() {
		return nil, fmt.Errorf("isolation: %s request before Init", s.mode)
	}
	return s.manager.Process(), nil
}

func (s *managedStrategy) EndRequest() (CleanupResult, error) {
	if s.mode == ModeGHNop {
		return CleanupResult{}, nil
	}
	st, err := s.manager.Restore()
	if err != nil {
		return CleanupResult{}, err
	}
	if s.mode == ModeFaasm {
		// Replace Groundhog's metered cost with the Faaslet reset model: the
		// functional rollback is identical, the price is not.
		st.Total = s.kern.Cost.FaasmResetBase +
			s.kern.Cost.FaasmResetPerPage*sim.Duration(st.RestoredPages)
	}
	return CleanupResult{Duration: st.Total, Restore: st, Restored: true}, nil
}

// forkStrategy serves each request in a child forked from the warm parent.
// fork(2) cannot capture multi-threaded runtimes, so construction fails for
// them — the limitation that motivates Groundhog's design (§3.2).
type forkStrategy struct {
	kern   *kernel.Kernel
	parent *kernel.Process
	child  *kernel.Process
}

func newForkStrategy(k *kernel.Kernel, p *kernel.Process) (*forkStrategy, error) {
	if len(p.Threads) > 1 {
		return nil, fmt.Errorf("isolation: fork cannot isolate %d-threaded process %d",
			len(p.Threads), p.PID)
	}
	return &forkStrategy{kern: k, parent: p}, nil
}

func (s *forkStrategy) Mode() Mode                  { return ModeFork }
func (s *forkStrategy) Init() (sim.Duration, error) { return 0, nil }
func (s *forkStrategy) Interposes() bool            { return true }
func (s *forkStrategy) CanSkipCleanup() bool        { return false }
func (s *forkStrategy) Manager() *core.Manager      { return nil }

func (s *forkStrategy) BeginRequest(meter *sim.Meter) (*kernel.Process, error) {
	if s.child != nil {
		return nil, fmt.Errorf("isolation: overlapping fork requests")
	}
	child, err := s.kern.Fork(s.parent, meter) // fork cost is on the critical path
	if err != nil {
		return nil, err
	}
	s.child = child
	return child, nil
}

// Release reaps a child orphaned by a mid-request crash: the parent's own
// exit does not free the forked child's address space, so a torn-down
// container must discard any in-flight child or its frames leak.
func (s *forkStrategy) Release() {
	if s.child != nil {
		s.kern.Exit(s.child)
		s.child = nil
	}
}

func (s *forkStrategy) EndRequest() (CleanupResult, error) {
	if s.child == nil {
		return CleanupResult{}, fmt.Errorf("isolation: EndRequest without BeginRequest")
	}
	// Discarding the child is the cleanup; it is nearly free.
	s.kern.Exit(s.child)
	s.child = nil
	return CleanupResult{Duration: forkTeardown, Restored: true}, nil
}

// forkTeardown is the cost of reaping the per-request child.
const forkTeardown = 50 * time.Microsecond
