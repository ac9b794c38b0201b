package core

import (
	"reflect"
	"slices"

	"groundhog/internal/vm"
)

// The reference restore. Restore reads the address space's epoch logs; the
// reference reads none of them. It takes the dirty set from the page table's
// soft-dirty bits, the resident set from the page table, and whether a clean
// resident page still sits on the frame the snapshot saw from its entry,
// and otherwise runs Restore's own phases. The twin tests play one request
// to two managers and restore one with each: the RestoreStats agree field
// for field, and both processes verify clean, exactly when the logs say what
// a walk of the page table finds.

// ExactRestore lets the external test package restore through the reference.
var ExactRestore = (*Manager).exactRestore

// exactRestore is Restore with the page table read in place of the logs and
// exactPlan in place of plan. The scan still charges what Restore's does.
func (m *Manager) exactRestore() (RestoreStats, error) {
	sc, as := &m.scratch, m.proc.AS
	sc.begin()
	m.tracer.SetMeter(&sc.meter)
	defer m.tracer.SetMeter(nil)

	sc.meter.Attribute(&sc.phases[phInterrupt])
	if err := m.tracer.InterruptAll(); err != nil {
		return RestoreStats{}, err
	}
	sc.meter.Attribute(&sc.phases[phReadMaps])
	sc.layout = m.fs.MapsRegions(m.proc, &sc.meter, sc.layout[:0])
	same := as.BrkValue() == m.snap.Brk && slices.Equal(sc.layout, m.snap.Layout)

	mapped := m.scan()
	sc.dirty, sc.present = sc.dirty[:0], as.AppendResidentVPNs(sc.present[:0])
	for _, vpn := range sc.present {
		if pte, _ := as.PTEAt(vpn); pte.SoftDirty {
			sc.dirty = append(sc.dirty, vpn)
		}
	}
	diff := m.diffLayout(same)
	if err := m.applyLayout(diff); err != nil {
		return RestoreStats{}, err
	}
	m.exactPlan()
	if err := m.applyContent(); err != nil {
		return RestoreStats{}, err
	}
	if err := m.rearm(); err != nil {
		return RestoreStats{}, err
	}
	return m.restoreStats(mapped, diff), nil
}

// exactPlan computes plan's two sets without the logs: one linear three-way
// merge of the store's VPN index with the resident and the dirty list, which
// asks the page table about every clean store page that was resident.
func (m *Manager) exactPlan() {
	sc, st, as, phys := &m.scratch, m.snap, m.proc.AS, m.kern.Phys
	sc.fresh, sc.restore = sc.fresh[:0], sc.restore[:0]
	pi, di := 0, 0
	for i, vpn := range st.VPNs {
		for ; pi < len(sc.present) && sc.present[pi] < vpn; pi++ {
			m.addFresh(sc.present[pi])
		}
		resident := pi < len(sc.present) && sc.present[pi] == vpn
		if resident {
			pi++
		}
		var isDirty bool
		di, isDirty = seek(sc.dirty, di, vpn)
		switch {
		case isDirty:
			sc.restore = append(sc.restore, i)
		case resident && !lostFrame(as, vpn):
			// Clean and still on the snapshot's frame. A page the scan found
			// resident may have lost it: a read can have faulted a zero frame
			// back in after a drop, or the page sat in a region applyLayout
			// just removed.
		case !st.zeroAt(i, phys):
			sc.restore = append(sc.restore, i)
		}
	}
	for _, vpn := range sc.present[pi:] {
		m.addFresh(vpn)
	}
}

// lostFrame reports whether clean page vpn is no longer on the frame it had
// at the last clear: it is not resident, or it carries a soft-dirty extent —
// which a page that is not soft-dirty only does when it became resident
// since (a page born during the epoch carries the whole page). Only vm's own
// writes read the extent, so the reference reads the entry's two fields by
// reflection rather than through an exported accessor.
func lostFrame(as *vm.AddressSpace, vpn uint64) bool {
	pte, ok := as.PTEAt(vpn)
	e := reflect.ValueOf(pte)
	return !ok || e.Field(pteHi).Uint() > e.Field(pteLo).Uint()
}

// pteLo and pteHi index vm.PTE's extent fields.
var pteLo, pteHi = pteField("lo"), pteField("hi")

func pteField(name string) int {
	f, ok := reflect.TypeOf(vm.PTE{}).FieldByName(name)
	if !ok {
		panic("core: vm.PTE has no field " + name)
	}
	return f.Index[0]
}
