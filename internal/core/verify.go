package core

import (
	"bytes"
	"fmt"

	"groundhog/internal/mem"
	"groundhog/internal/vm"
)

// Verify checks that the process's current state is byte-for-byte identical
// to the snapshot: same memory layout, program break, registers, and page
// contents. It is the executable form of the paper's security argument — a
// subsequent request can observe nothing of its predecessor if and only if
// Verify passes after Restore.
//
// Verify is a test and debugging aid; it reads kernel state directly and
// charges no virtual time.
func (m *Manager) Verify() error {
	if m.snap == nil {
		return fmt.Errorf("core: verify before snapshot")
	}
	as := m.proc.AS

	// Layout.
	cur := as.VMAs()
	if len(cur) != len(m.snap.layout) {
		return fmt.Errorf("core: verify: %d regions, snapshot had %d\ncur: %v\nsnap: %v",
			len(cur), len(m.snap.layout), cur, m.snap.layout)
	}
	for i, v := range cur {
		s := m.snap.layout[i]
		if v.Start != s.Start || v.End != s.End || v.Prot != s.Prot || v.Kind != s.Kind || v.Name != s.Name {
			return fmt.Errorf("core: verify: region %d is %v, snapshot had %v", i, v, s)
		}
	}

	// Program break.
	brk, err := as.Brk(0)
	if err != nil {
		return err
	}
	if brk != m.snap.brk {
		return fmt.Errorf("core: verify: brk %v, snapshot had %v", brk, m.snap.brk)
	}

	// Registers.
	if len(m.proc.Threads) != len(m.snap.regs) {
		return fmt.Errorf("core: verify: %d threads, snapshot had %d", len(m.proc.Threads), len(m.snap.regs))
	}
	for i, th := range m.proc.Threads {
		if th.Regs != m.snap.regs[i] {
			return fmt.Errorf("core: verify: thread %d registers diverged", th.TID)
		}
	}

	// Page contents: every snapshot page must read back identically, and
	// every currently resident page must match the snapshot (zero if the
	// snapshot had no content there).
	phys := as.Phys()
	st := &m.snap.store
	var buf, want [mem.PageSize]byte
	for i, vpn := range st.vpns {
		var got []byte // nil: not resident, or all-zero
		if zero, ok := as.PeekPageInto(vpn, buf[:]); ok && !zero {
			got = buf[:]
		}
		if !pagesEqual(got, st.contentAt(i, phys, want[:])) {
			return fmt.Errorf("core: verify: page %#x (%v) differs from snapshot",
				vpn, vm.PageAddr(vpn))
		}
	}
	for _, vpn := range as.ResidentVPNs() {
		if st.has(vpn) {
			continue // checked above
		}
		if got := as.PeekPage(vpn); got != nil {
			return fmt.Errorf("core: verify: page %#x resident with data but absent from snapshot", vpn)
		}
	}
	return nil
}

// pagesEqual treats nil as the all-zero page.
func pagesEqual(a, b []byte) bool {
	if a == nil && b == nil {
		return true
	}
	if a == nil {
		return allZero(b)
	}
	if b == nil {
		return allZero(a)
	}
	return bytes.Equal(a, b)
}

func allZero(p []byte) bool {
	for _, b := range p {
		if b != 0 {
			return false
		}
	}
	return true
}
