// Package ptrace implements the tracer interface Groundhog's manager uses to
// orchestrate snapshot and restore (§4.2, §4.4 of the paper): seizing a
// process, interrupting all of its threads, reading and writing registers
// and memory, injecting memory-management syscalls, and detaching.
//
// Per-thread costs (interrupt, regs, detach) and per-injection costs come
// from the kernel's cost model; they are what makes multi-threaded Node.js
// runtimes more expensive to restore than single-threaded C functions in the
// Fig. 8 breakdown.
package ptrace

import (
	"fmt"

	"groundhog/internal/kernel"
	"groundhog/internal/sim"
	"groundhog/internal/vm"
)

// Tracer is an attached ptrace session on one process. Create it with
// Seize; it is invalid after Detach.
type Tracer struct {
	kern    *kernel.Kernel
	proc    *kernel.Process
	meter   *sim.Meter
	stopped bool
	done    bool
}

// Seize attaches to p without stopping it (PTRACE_SEIZE semantics), charging
// the per-thread attach cost to meter.
func Seize(k *kernel.Kernel, p *kernel.Process, meter *sim.Meter) (*Tracer, error) {
	if !p.Alive() {
		return nil, fmt.Errorf("ptrace: seize of dead process %d", p.PID)
	}
	sim.ChargeTo(meter, k.Cost.PtraceAttachPerThread*sim.Duration(len(p.Threads)))
	return &Tracer{kern: k, proc: p, meter: meter}, nil
}

// SetMeter redirects subsequent charges (a fresh meter per restore lets the
// manager report per-operation breakdowns).
func (t *Tracer) SetMeter(m *sim.Meter) { t.meter = m }

func (t *Tracer) check(needStopped bool) error {
	if t.done {
		return fmt.Errorf("ptrace: use after detach from %d", t.proc.PID)
	}
	if needStopped && !t.stopped {
		return fmt.Errorf("ptrace: process %d not stopped", t.proc.PID)
	}
	return nil
}

// InterruptAll stops every thread of the tracee (PTRACE_INTERRUPT per
// thread). The cost is per thread: each must be signalled and reach a
// trace-stop.
func (t *Tracer) InterruptAll() error {
	if err := t.check(false); err != nil {
		return err
	}
	if t.stopped {
		return nil
	}
	sim.ChargeTo(t.meter, t.kern.Cost.PtraceInterruptPerThread*sim.Duration(len(t.proc.Threads)))
	t.stopped = true
	return nil
}

// Resume restarts every stopped thread.
func (t *Tracer) Resume() error {
	if err := t.check(true); err != nil {
		return err
	}
	t.stopped = false
	return nil
}

// GetRegs reads one thread's register file. The tracee must be stopped.
func (t *Tracer) GetRegs(tid int) (kernel.Regs, error) {
	if err := t.check(true); err != nil {
		return kernel.Regs{}, err
	}
	th, ok := t.proc.Thread(tid)
	if !ok {
		return kernel.Regs{}, fmt.Errorf("ptrace: no thread %d in process %d", tid, t.proc.PID)
	}
	sim.ChargeTo(t.meter, t.kern.Cost.PtraceGetRegsPerThread)
	return th.Regs, nil
}

// SetRegs writes one thread's register file. The tracee must be stopped.
func (t *Tracer) SetRegs(tid int, regs kernel.Regs) error {
	if err := t.check(true); err != nil {
		return err
	}
	th, ok := t.proc.Thread(tid)
	if !ok {
		return fmt.Errorf("ptrace: no thread %d in process %d", tid, t.proc.PID)
	}
	sim.ChargeTo(t.meter, t.kern.Cost.PtraceSetRegsPerThread)
	th.Regs = regs
	return nil
}

// PeekPageInto reads one page of tracee memory (process_vm_readv
// granularity) into buf (at least one page): ok=false means the page is not
// resident, zero=true that it is all-zero (buf untouched). The snapshot uses
// this to read each page into a page its kernel lends, in place.
func (t *Tracer) PeekPageInto(vpn uint64, buf []byte) (zero, ok bool, err error) {
	if err := t.check(true); err != nil {
		return false, false, err
	}
	sim.ChargeTo(t.meter, t.kern.Cost.PtracePeekPerPage)
	zero, ok = t.proc.AS.PeekPageInto(vpn, buf)
	return zero, ok, nil
}

// injected wraps a memory-management call executed inside the tracee: it
// charges the injection cost and routes the syscall's own cost to the
// tracer's meter rather than the tracee's.
func (t *Tracer) injected(fn func() error) error {
	if err := t.check(true); err != nil {
		return err
	}
	sim.ChargeTo(t.meter, t.kern.Cost.PtraceSyscallInject)
	as := t.proc.AS
	saved := as.Meter()
	as.SetMeter(t.meter)
	defer as.SetMeter(saved)
	return fn()
}

// InjectBrk executes brk(addr) in the tracee.
func (t *Tracer) InjectBrk(addr vm.Addr) error {
	return t.injected(func() error {
		_, err := t.proc.AS.Brk(addr)
		return err
	})
}

// InjectMmapFixed executes mmap(MAP_FIXED) in the tracee, re-creating a
// region the function removed.
func (t *Tracer) InjectMmapFixed(start vm.Addr, bytes int, prot vm.Prot, kind vm.Kind, name string) error {
	return t.injected(func() error {
		return t.proc.AS.MmapFixed(start, bytes, prot, kind, name)
	})
}

// InjectMunmap executes munmap in the tracee, removing a region the function
// added.
func (t *Tracer) InjectMunmap(start vm.Addr, bytes int) error {
	return t.injected(func() error {
		return t.proc.AS.Munmap(start, bytes)
	})
}

// InjectMadvise executes madvise(DONTNEED) in the tracee, releasing pages
// that were newly paged in during the request (§4.4 "madvises newly paged
// pages").
func (t *Tracer) InjectMadvise(start vm.Addr, bytes int) error {
	return t.injected(func() error {
		return t.proc.AS.Madvise(start, bytes)
	})
}

// InjectMprotect executes mprotect in the tracee, restoring a region's
// original protection.
func (t *Tracer) InjectMprotect(start vm.Addr, bytes int, prot vm.Prot) error {
	return t.injected(func() error {
		return t.proc.AS.Mprotect(start, bytes, prot)
	})
}

// Detach resumes the tracee and ends the session; the Tracer must not be
// used afterwards.
func (t *Tracer) Detach() error {
	if err := t.check(false); err != nil {
		return err
	}
	sim.ChargeTo(t.meter, t.kern.Cost.PtraceDetachPerThread*sim.Duration(len(t.proc.Threads)))
	if t.stopped {
		if err := t.Resume(); err != nil {
			return err
		}
	}
	t.done = true
	return nil
}
