package faults

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

func TestZeroPlanDisarmed(t *testing.T) {
	if New(Plan{}) != nil {
		t.Fatal("New(Plan{}) should return a nil (disarmed) injector")
	}
	if (Plan{}).Enabled() {
		t.Fatal("zero Plan should not be enabled")
	}
}

func TestNilInjectorSafe(t *testing.T) {
	var inj *Injector
	if inj.Armed() {
		t.Fatal("nil injector reports armed")
	}
	if err := inj.Fire(SiteColdStart); err != nil {
		t.Fatalf("nil injector fired: %v", err)
	}
	if got := inj.Cut(SiteCloneSpawn, 100); got != 0 {
		t.Fatalf("nil injector Cut = %d, want 0", got)
	}
}

func TestScheduleFiresExactOrdinals(t *testing.T) {
	inj := New(Plan{Schedule: map[Site][]uint64{
		SiteColdStart: {1, 3},
	}})
	for attempt := 1; attempt <= 5; attempt++ {
		err := inj.Fire(SiteColdStart)
		want := attempt == 1 || attempt == 3
		if (err != nil) != want {
			t.Fatalf("attempt %d: fired=%v, want %v", attempt, err != nil, want)
		}
		if err != nil {
			var fe *Error
			if !errors.As(err, &fe) {
				t.Fatalf("attempt %d: error %T is not *Error", attempt, err)
			}
			if fe.Site != SiteColdStart || fe.Attempt != uint64(attempt) {
				t.Fatalf("attempt %d: got %+v", attempt, fe)
			}
		}
	}
	if got := inj.sites[SiteColdStart].attempts; got != 5 {
		t.Fatalf("attempts = %d, want 5", got)
	}
}

func TestRateDeterminism(t *testing.T) {
	fires := func() []bool {
		inj := New(Plan{Seed: 42, Rates: map[Site]float64{SiteRequestCrash: 0.3}})
		out := make([]bool, 50)
		for i := range out {
			out[i] = inj.Fire(SiteRequestCrash) != nil
		}
		return out
	}
	a, b := fires(), fires()
	any := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("attempt %d differs between identical plans", i+1)
		}
		any = any || a[i]
	}
	if !any {
		t.Fatal("rate 0.3 over 50 attempts never fired")
	}
}

func TestSiteStreamsIndependent(t *testing.T) {
	// The k-th decision at a site must not depend on how other sites'
	// attempts interleave with it.
	plan := Plan{Seed: 7, Rates: map[Site]float64{
		SiteColdStart:    0.4,
		SiteRequestCrash: 0.4,
	}}

	solo := New(plan)
	var want []bool
	for i := 0; i < 20; i++ {
		want = append(want, solo.Fire(SiteColdStart) != nil)
	}

	mixed := New(plan)
	var got []bool
	for i := 0; i < 20; i++ {
		// Interleave draws at the other site between every attempt.
		mixed.Fire(SiteRequestCrash)
		mixed.Fire(SiteRequestCrash)
		got = append(got, mixed.Fire(SiteColdStart) != nil)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("attempt %d at cold-start changed due to interleaving", i+1)
		}
	}
}

func TestCutDeterministicAndBounded(t *testing.T) {
	draw := func() []int {
		inj := New(Plan{Seed: 11, Rates: map[Site]float64{SiteSnapshotExport: 0.5}})
		out := make([]int, 30)
		for i := range out {
			out[i] = inj.Cut(SiteSnapshotExport, 17)
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cut %d differs between identical plans", i)
		}
		if a[i] < 0 || a[i] >= 17 {
			t.Fatalf("cut %d = %d outside [0, 17)", i, a[i])
		}
	}
	inj := New(Plan{Rates: map[Site]float64{SiteSnapshotExport: 0.5}})
	if got := inj.Cut(SiteSnapshotExport, 0); got != 0 {
		t.Fatalf("Cut with n=0 = %d, want 0", got)
	}
}

func TestErrorMatchesSentinel(t *testing.T) {
	inj := New(Plan{Schedule: map[Site][]uint64{SiteRestore: {1}}})
	err := inj.Fire(SiteRestore)
	if err == nil {
		t.Fatal("scheduled attempt 1 did not fire")
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("%v does not match ErrInjected", err)
	}
	wrapped := fmt.Errorf("outer: %w", err)
	if !errors.Is(wrapped, ErrInjected) {
		t.Fatalf("wrapped %v does not match ErrInjected", wrapped)
	}
	if errors.Is(errors.New("other"), ErrInjected) {
		t.Fatal("unrelated error matches ErrInjected")
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		ok   bool
	}{
		{"zero", Plan{}, true},
		{"good rates", Plan{Rates: map[Site]float64{SiteColdStart: 0.5}}, true},
		{"good schedule", Plan{Schedule: map[Site][]uint64{SiteRestore: {1, 2}}}, true},
		{"rate one", Plan{Rates: map[Site]float64{SiteColdStart: 1.0}}, false},
		{"rate negative", Plan{Rates: map[Site]float64{SiteColdStart: -0.1}}, false},
		{"rate NaN", Plan{Rates: map[Site]float64{SiteColdStart: math.NaN()}}, false},
		{"unknown rate site", Plan{Rates: map[Site]float64{"bogus": 0.1}}, false},
		{"unknown schedule site", Plan{Schedule: map[Site][]uint64{"bogus": {1}}}, false},
		{"zero ordinal", Plan{Schedule: map[Site][]uint64{SiteRestore: {0}}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.plan.Validate()
			if (err == nil) != tc.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}
