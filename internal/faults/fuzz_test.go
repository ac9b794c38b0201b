package faults

import (
	"math"
	"slices"
	"testing"
)

// FuzzPlanValidate maps arbitrary inputs onto a plan — two rates and one
// schedule of up to two ordinals, each on a site drawn from Sites or an
// unknown name — and holds Validate to what it promises. Validate never
// panics. A plan it accepts names known sites only, with finite rates in
// [0, 1) and ordinals >= 1, and it injects deterministically: two injectors
// built from it agree on every Fire and Cut over the same attempts, Cut stays
// in [0, n), and a scheduled ordinal fires on exactly that attempt. The seed
// corpus is testdata/fuzz/FuzzPlanValidate.
func FuzzPlanValidate(f *testing.F) {
	site := func(b uint8) Site {
		if i := int(b) % (len(Sites) + 1); i < len(Sites) {
			return Sites[i]
		}
		return "bogus"
	}
	const attempts = 64

	f.Fuzz(func(t *testing.T, seed uint64, site1 uint8, rate1 float64, site2 uint8, rate2 float64,
		schedSite, nOrd uint8, ord1, ord2 uint64) {
		p := Plan{
			Seed:     seed,
			Rates:    map[Site]float64{site(site1): rate1, site(site2): rate2},
			Schedule: map[Site][]uint64{site(schedSite): []uint64{ord1, ord2}[:nOrd%3]},
		}
		if p.Validate() != nil {
			return
		}
		for s, r := range p.Rates {
			if !slices.Contains(Sites, s) {
				t.Fatalf("%+v: accepted unknown site %q", p, s)
			}
			if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 || r >= 1 {
				t.Fatalf("%+v: accepted rate %v on %q", p, r, s)
			}
		}
		for s, ords := range p.Schedule {
			if !slices.Contains(Sites, s) {
				t.Fatalf("%+v: accepted unknown site %q", p, s)
			}
			for _, o := range ords {
				if o < 1 {
					t.Fatalf("%+v: accepted ordinal %d on %q", p, o, s)
				}
			}
		}

		a, b := New(p), New(p)
		for _, s := range Sites {
			scheduled := map[uint64]bool{}
			for _, o := range p.Schedule[s] {
				scheduled[o] = true
			}
			for k := uint64(1); k <= attempts; k++ {
				ea, eb := a.Fire(s), b.Fire(s)
				if (ea == nil) != (eb == nil) {
					t.Fatalf("%+v: %q attempt %d fired on one injector only", p, s, k)
				}
				if scheduled[k] && ea == nil {
					t.Fatalf("%+v: %q scheduled attempt %d did not fire", p, s, k)
				}
				if ea != nil && *ea.(*Error) != (Error{Site: s, Attempt: k}) {
					t.Fatalf("%+v: %q attempt %d fired as %v", p, s, k, ea)
				}
				n := int(k)
				ca, cb := a.Cut(s, n), b.Cut(s, n)
				if ca != cb || ca < 0 || ca >= n {
					t.Fatalf("%+v: %q Cut(%d) = %d and %d", p, s, n, ca, cb)
				}
			}
		}
		for s, st := range a.sites {
			if st.attempts != b.sites[s].attempts {
				t.Fatalf("%+v: %q attempts diverge: %d vs %d", p, s, st.attempts, b.sites[s].attempts)
			}
		}
	})
}
