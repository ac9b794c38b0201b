// Package runtimes models the language runtimes the paper evaluates —
// native C, CPython, and Node.js — and executes function requests against
// the simulated kernel.
//
// A runtime model captures the per-language properties the evaluation turns
// on: initialization phases and lazy loading captured by the dummy request
// (§4.1), thread count (Node's worker threads make ptrace orchestration
// pricier, Fig. 8), per-request memory-layout churn (Node "maps memory and
// performs memory layout changes aggressively", §5.3.1), time-dependent GC
// interactions with restoration (img-resize), and WebAssembly compilation
// factors for the FAASM comparison (§5.3.3).
package runtimes

import (
	"fmt"
	"time"

	"groundhog/internal/sim"
)

// Language identifies a function runtime.
type Language int

// The three languages of the paper's 58 benchmarks.
const (
	LangC Language = iota
	LangPython
	LangNode
)

var langNames = [...]string{"c", "python", "node"}

// String returns the paper's single-letter-in-parens style name base.
func (l Language) String() string { return langNames[l] }

// Suffix returns the benchmark-name suffix used in the paper's figures:
// (c), (p) or (n).
func (l Language) Suffix() string {
	switch l {
	case LangPython:
		return "(p)"
	case LangNode:
		return "(n)"
	default:
		return "(c)"
	}
}

// Threads returns the number of threads the warm runtime keeps alive. Node's
// libuv/V8 worker pool is why fork-based isolation cannot serve it (§3.2).
func (l Language) Threads() int {
	switch l {
	case LangNode:
		return 11
	default:
		return 1
	}
}

// TextPages returns the size of the runtime's code segment.
func (l Language) TextPages() int {
	switch l {
	case LangC:
		return 64
	case LangPython:
		return 700
	default:
		return 2000
	}
}

// InitDuration is the runtime-initialization phase of a cold start (Fig. 1):
// interpreter startup, library loading.
func (l Language) InitDuration() sim.Duration {
	switch l {
	case LangC:
		return 4 * time.Millisecond
	case LangPython:
		return 230 * time.Millisecond
	default:
		return 420 * time.Millisecond
	}
}

// WasmFactor is the execution-time multiplier when the function is compiled
// to WebAssembly (the FAASM configuration): PolyBench-style numeric C code
// runs slightly faster under the wasm JIT than the native -O0-style build
// (§5.3.3, [21,23]), while the interpreted Python runtime is much slower.
// Node is not supported by FAASM in the paper's comparison.
func (l Language) WasmFactor() float64 {
	switch l {
	case LangC:
		return 0.85
	case LangPython:
		return 1.85
	default:
		return 0
	}
}

// LayoutChurnOps is the number of per-request mmap/munmap region cycles the
// runtime performs.
func (l Language) LayoutChurnOps() int {
	switch l {
	case LangNode:
		return 6
	case LangPython:
		return 1
	default:
		return 0
	}
}

// Profile describes one benchmark function's measured characteristics. The
// numbers are encoded from Table 3 of the paper (per-function exec time,
// address-space size, in-function faults, restored pages) plus the input
// sizes and anomalies discussed in §5.3.1.
type Profile struct {
	Name string
	Lang Language

	// Exec is the function's pure compute time (the BASE invoker latency
	// with fault costs subtracted — for these benchmarks faults under BASE
	// are negligible, so it equals the paper's base invoker latency).
	Exec sim.Duration

	// TotalPages is the mapped/resident address-space size after warm-up
	// (Table 3 "#pages").
	TotalPages int
	// DirtyPages is the number of pages written per request (Table 3
	// "#faults": each written page takes one soft-dirty arming fault).
	DirtyPages int
	// DropPages is the number of resident pages the request releases
	// (madvise/heap shrink) that restoration must copy back; Table 3's
	// "#restored" minus DirtyPages. Large for heat-3d(c) and primes(n).
	DropPages int

	// InputKB and OutputKB size the request and response payloads
	// (json 200 KB, img-resize 76 KB, §5.3.1).
	InputKB  int
	OutputKB int

	// GHPenalty is extra per-request compute when the process was restored
	// before this request: re-warming effects the paper attributes to
	// time-dependent garbage collection and lazily rebuilt runtime state
	// (§5.3.1). Encoded from Table 3's GH-vs-base invoker deltas.
	GHPenalty sim.Duration

	// ReadPagesOverride, when positive, fixes the per-request read set
	// exactly (the §5.2 microbenchmark reads every mapped page).
	ReadPagesOverride int

	// UniformDirty replaces the write pattern's clusters of writeRunLen
	// adjacent pages with a uniformly random page subset whose natural run
	// lengths grow with density — the microbenchmark's pattern, and the
	// effect behind the restore-coalescing slope change in Fig. 3 (left).
	UniformDirty bool

	// LeakPages and LeakSlowdown model the logging(p) memory-leak bug: the
	// function leaks pages each request and BASE slows down progressively;
	// Groundhog's rollback also rolls back the leak (§5.3.1).
	LeakPages    int
	LeakSlowdown float64 // fractional Exec growth per accumulated request

	// StateGets and StatePuts are the mean per-request operation counts
	// against the modeled external state store (a stateful function keeps
	// its cross-request state out-of-process, since Groundhog's restore
	// wipes everything in-process). Each request draws its own counts
	// around these means on the instance's seeded stream and charges
	// kernel.CostModel.StateGetCost/StatePutCost per operation. Zero means
	// are never drawn from and charge nothing, so stateless profiles —
	// every profile predating these fields — execute bit-identically.
	StateGets float64
	StatePuts float64

	// WarmupExtra lengthens the runtime-initialization phase of WarmUp
	// beyond the language's InitDuration — heavyweight runtime profiles
	// (RuntimeProfile.Apply) load more framework before the snapshot. Zero
	// adds nothing.
	WarmupExtra sim.Duration
}

// DisplayName returns the figure label, e.g. "chaos (p)".
func (p Profile) DisplayName() string { return p.Name + " " + p.Lang.Suffix() }

// ReadPages is the per-request read working set: REAP-style measurements
// (§3.1) put total working sets near 9% of the footprint; reads beyond the
// write set are roughly the write set again plus a slice of the total.
func (p Profile) ReadPages() int {
	if p.ReadPagesOverride > 0 {
		if p.ReadPagesOverride > p.TotalPages {
			return p.TotalPages
		}
		return p.ReadPagesOverride
	}
	r := 2*p.DirtyPages + p.TotalPages/24
	if r > p.TotalPages {
		r = p.TotalPages
	}
	if r < 1 {
		r = 1
	}
	return r
}

// Validate sanity-checks the profile.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("runtimes: profile with empty name")
	}
	if p.Exec <= 0 {
		return fmt.Errorf("runtimes: %s: non-positive exec", p.Name)
	}
	if p.TotalPages < 64 {
		return fmt.Errorf("runtimes: %s: total pages %d too small", p.Name, p.TotalPages)
	}
	if p.DirtyPages < 0 || p.DropPages < 0 || p.DirtyPages+p.DropPages > p.TotalPages {
		return fmt.Errorf("runtimes: %s: inconsistent page counts", p.Name)
	}
	if p.StateGets < 0 || p.StatePuts < 0 {
		return fmt.Errorf("runtimes: %s: negative state-operation means", p.Name)
	}
	if p.WarmupExtra < 0 {
		return fmt.Errorf("runtimes: %s: negative warm-up extra", p.Name)
	}
	return nil
}

// Stateful reports whether the profile declares external state traffic —
// the arming condition for the per-request state-store charges.
func (p Profile) Stateful() bool { return p.StateGets > 0 || p.StatePuts > 0 }

// Request is one function invocation's input.
type Request struct {
	ID     uint64
	SizeKB int
	Secret uint64 // planted by security tests/examples; 0 otherwise
}

// Response is a function invocation's output.
type Response struct {
	SizeKB int
}

// stackSlack is the portion of the stack each request scribbles on.
const stackSlack = 8

// layout proportions for warm-up.
const (
	stackPages = 32
	dataPages  = 16
)
