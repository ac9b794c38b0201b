package runtimes

import (
	"testing"
	"time"
)

func uniformProfile(total, dirty int) Profile {
	return Profile{
		Name:         "uniform-fn",
		Lang:         LangC,
		Exec:         2 * time.Millisecond,
		TotalPages:   total,
		DirtyPages:   dirty,
		UniformDirty: true,
	}
}

func TestUniformDirtySetSizeAndStability(t *testing.T) {
	_, in := warmInstance(t, uniformProfile(4000, 300))
	set1 := in.plan.writes
	if len(set1) != 300 {
		t.Fatalf("dirty set = %d pages, want 300", len(set1))
	}
	in.Invoke(Request{ID: 1}, nil)
	if set2 := in.plan.writes; &set1[0] != &set2[0] {
		t.Fatal("dirty set recomputed; must be stable per instance")
	}
	for i := 1; i < len(set1); i++ {
		if set1[i] <= set1[i-1] {
			t.Fatal("dirty set not sorted/unique")
		}
	}
}

func TestUniformDirtySetDensityDrivesRuns(t *testing.T) {
	runs := func(dirty int) int {
		prof := uniformProfile(2000, dirty)
		_, in := warmInstance(t, prof)
		set := in.plan.writes
		n := 0
		for i, v := range set {
			if i == 0 || set[i-1]+1 != v {
				n++
			}
		}
		return n
	}
	sparse, dense := runs(100), runs(1500)
	// At high density, far fewer runs per page: expected run length grows.
	if float64(dense)/1500 >= float64(sparse)/100 {
		t.Fatalf("density did not lengthen runs: sparse %d runs/100, dense %d runs/1500", sparse, dense)
	}
}

func TestUniformDirtyInvokeMarksExactlySet(t *testing.T) {
	prof := uniformProfile(3000, 200)
	_, in := warmInstance(t, prof)
	as := in.Proc.AS
	as.ClearSoftDirty()
	in.Invoke(Request{ID: 5}, nil)
	dirty := as.AppendSoftDirtyVPNs(nil)
	want := map[uint64]bool{}
	for _, vpn := range in.plan.writes {
		want[vpn] = true
	}
	found := 0
	for _, vpn := range dirty {
		if want[vpn] {
			found++
		}
	}
	if found != len(want) {
		t.Fatalf("only %d/%d uniform pages dirtied", found, len(want))
	}
}

func TestProfileAccessors(t *testing.T) {
	p := uniformProfile(1000, 10)
	if p.DisplayName() != "uniform-fn (c)" {
		t.Fatalf("DisplayName = %q", p.DisplayName())
	}
}

func TestUniformDirtyClampedToPool(t *testing.T) {
	// More dirty pages requested than the writable pool holds.
	prof := uniformProfile(600, 590)
	_, in := warmInstance(t, prof)
	set := in.plan.writes
	if len(set) == 0 || len(set) > 600 {
		t.Fatalf("clamped set = %d", len(set))
	}
	in.Invoke(Request{ID: 1}, nil) // must not fault outside the pool
}
