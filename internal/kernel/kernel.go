// Package kernel ties the simulated memory subsystem into processes: address
// spaces plus threads with register state, fork/exec/exit lifecycle, and the
// calibrated virtual-time cost model shared by every experiment.
//
// The package plays the role of "Standard Linux Kernel" in Fig. 2 of the
// paper: everything Groundhog's manager needs — ptrace, /proc, soft-dirty
// bits — is implemented against these processes by the ptrace and procfs
// packages.
package kernel

import (
	"fmt"

	"groundhog/internal/faults"
	"groundhog/internal/mem"
	"groundhog/internal/sim"
	"groundhog/internal/vm"
)

// Regs is a thread's register file. The exact registers are immaterial to
// the reproduction; what matters is that they are per-thread state that a
// request can taint and that Groundhog snapshots and restores. PC and SP
// stand in for the instruction and stack pointers; GP are general-purpose
// registers.
type Regs struct {
	PC uint64
	SP uint64
	GP [8]uint64
}

// Thread is a kernel thread belonging to a process.
type Thread struct {
	TID  int
	Regs Regs
}

// Process is a simulated OS process: one address space, one or more threads.
type Process struct {
	PID     int
	AS      *vm.AddressSpace
	Threads []*Thread

	kern  *Kernel
	alive bool
}

// Alive reports whether the process has not exited.
func (p *Process) Alive() bool { return p.alive }

// MainThread returns the first thread.
func (p *Process) MainThread() *Thread { return p.Threads[0] }

// Thread returns the thread with the given TID, if present.
func (p *Process) Thread(tid int) (*Thread, bool) {
	for _, t := range p.Threads {
		if t.TID == tid {
			return t, true
		}
	}
	return nil, false
}

// SpawnThread adds a thread to the process (language runtimes with worker
// threads use this during initialization).
func (p *Process) SpawnThread() *Thread {
	t := &Thread{TID: p.kern.nextTID}
	p.kern.nextTID++
	p.Threads = append(p.Threads, t)
	return t
}

// Kernel owns the process table and the physical memory pool.
type Kernel struct {
	Phys *mem.PhysMem
	Cost CostModel

	// Faults, when non-nil, arms deterministic fault injection at the
	// kernel's own seams (SpawnFromImage) and is consulted by the layers
	// above (core, faas) so a single plan governs the whole stack. The nil
	// default leaves every seam zero-cost: no randomness is consumed and no
	// virtual time is charged.
	Faults *faults.Injector

	procs   map[int]*Process
	nextPID int
	nextTID int
}

// New returns a kernel with the given cost model and an empty process table.
func New(cost CostModel) *Kernel {
	return &Kernel{
		Phys:    mem.New(),
		Cost:    cost,
		procs:   make(map[int]*Process),
		nextPID: 100,
		nextTID: 100,
	}
}

// ExecSpec describes the initial image of a process created by Spawn: sizes
// of the classic segments and the number of threads started by the runtime.
type ExecSpec struct {
	TextPages  int
	DataPages  int
	StackBytes int
	Threads    int
}

// Spawn creates a process from the spec: text and data segments, an empty
// heap, a stack, and the requested threads. It models fork+exec of a
// function runtime inside the container (§4.1).
func (k *Kernel) Spawn(spec ExecSpec) (*Process, error) {
	if spec.Threads < 1 {
		spec.Threads = 1
	}
	if spec.StackBytes <= 0 {
		spec.StackBytes = vm.DefaultStackBytes
	}
	as := vm.New(k.Phys, k.Cost.VM)
	if spec.TextPages > 0 {
		if _, err := as.SetupText(spec.TextPages * mem.PageSize); err != nil {
			return nil, err
		}
	}
	dataBase := vm.TextBase + vm.Addr(vm.PageCeil(spec.TextPages*mem.PageSize))
	if spec.DataPages > 0 {
		if err := as.MmapFixed(dataBase, spec.DataPages*mem.PageSize, vm.ProtRW, vm.KindData, ""); err != nil {
			return nil, err
		}
	}
	heapBase := dataBase + vm.Addr(vm.PageCeil(spec.DataPages*mem.PageSize)) + 0x10000
	if err := as.SetupHeap(heapBase); err != nil {
		return nil, err
	}
	if _, err := as.SetupStack(spec.StackBytes); err != nil {
		return nil, err
	}

	p := &Process{PID: k.nextPID, AS: as, kern: k, alive: true}
	k.nextPID++
	for i := 0; i < spec.Threads; i++ {
		t := p.SpawnThread()
		t.Regs.PC = uint64(vm.TextBase) + uint64(i)*0x40
		t.Regs.SP = uint64(vm.StackTop) - uint64(i)*0x10000
	}
	k.procs[p.PID] = p
	return p, nil
}

// Fork clones a process copy-on-write. Only the calling thread survives into
// the child, as with fork(2) — which is exactly why fork-based isolation
// cannot serve multi-threaded runtimes (§3.2). The charge for the fork
// (page-table copying) goes to meter if non-nil.
func (k *Kernel) Fork(parent *Process, meter *sim.Meter) (*Process, error) {
	if !parent.alive {
		return nil, fmt.Errorf("kernel: fork of dead process %d", parent.PID)
	}
	if len(parent.Threads) > 1 {
		return nil, fmt.Errorf("kernel: fork of multi-threaded process %d loses %d threads",
			parent.PID, len(parent.Threads)-1)
	}
	sim.ChargeTo(meter, k.Cost.ForkBase)
	sim.ChargeTo(meter, k.Cost.ForkPerPage*sim.Duration(parent.AS.ResidentPages()))
	child := &Process{PID: k.nextPID, AS: parent.AS.Fork(), kern: k, alive: true}
	k.nextPID++
	t := child.SpawnThread()
	t.Regs = parent.MainThread().Regs
	k.procs[child.PID] = child
	return child, nil
}

// Exit terminates a process and releases its memory. The address space
// retires: its region list, page-table chunk list and epoch logs go to the
// next process spawned, cloned or forked (see vm.AddressSpace.Retire).
func (k *Kernel) Exit(p *Process) {
	if !p.alive {
		return
	}
	p.alive = false
	p.AS.Retire()
	delete(k.procs, p.PID)
}
