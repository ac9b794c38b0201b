package cluster

import (
	"errors"
	"testing"

	"groundhog/internal/catalog"
	"groundhog/internal/faults"
	"groundhog/internal/isolation"
	"groundhog/internal/kernel"
	"groundhog/internal/sim"
	"groundhog/internal/trace"
)

// FuzzConfigValidate maps arbitrary inputs onto a cluster configuration —
// hosts (-1 to 4, and through hosts/6 the placer: round-robin when odd, the
// pack-first default otherwise), window, both TTLs, one event and one fault
// rate — and holds Validate to what it promises. Validate never panics
// (through Config.dispatcher it runs trace.Config.Validate too). A
// configuration it accepts builds: New deploys one small C load and
// Teardown gives back every frame, and the only way New may still fail is
// an injected fault outlasting the cold-start retry budget. The seed corpus
// is testdata/fuzz/FuzzConfigValidate.
func FuzzConfigValidate(f *testing.F) {
	entry, err := catalog.Lookup("atax (c)")
	if err != nil {
		f.Fatal(err)
	}
	loads := []trace.FunctionLoad{{Entry: entry, RatePerSec: 1, Burstiness: 1}}
	kinds := []EventKind{"", EventHostFail, EventHostDrain, "host-reboot"}

	f.Fuzz(func(t *testing.T, hosts uint8, window, keepAlive, scaleToZero int64,
		evKind uint8, evAt int64, evHost int8, site uint8, rate float64) {
		cfg := Config{
			Cost:                     kernel.Default(),
			Mode:                     isolation.ModeGH,
			Seed:                     1,
			Hosts:                    int(hosts%6) - 1,
			MaxContainersPerFunction: 2,
			Window:                   sim.Duration(window),
			KeepAlive:                sim.Duration(keepAlive),
			ScaleToZeroAfter:         sim.Duration(scaleToZero),
		}
		if hosts/6%2 == 1 {
			cfg.Placer = &RoundRobin{}
		}
		if kind := kinds[int(evKind)%len(kinds)]; kind != "" {
			cfg.Events = []Event{{At: sim.Duration(evAt), Kind: kind, Host: int(evHost)}}
		}
		if rate != 0 {
			cfg.Faults = faults.Plan{Seed: 1, Rates: map[faults.Site]float64{
				faults.Sites[int(site)%len(faults.Sites)]: rate,
			}}
		}
		if cfg.Validate() != nil {
			return
		}
		cl, err := New(cfg, loads)
		switch {
		case errors.Is(err, faults.ErrInjected):
		case err != nil:
			t.Fatalf("Validate accepted %+v, New rejected it: %v", cfg, err)
		default:
			if n := cl.Teardown(); n != 0 {
				t.Fatalf("%+v: teardown left %d frames", cfg, n)
			}
		}
	})
}
