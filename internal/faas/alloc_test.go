package faas

import (
	"testing"
	"time"

	"groundhog/internal/isolation"
	"groundhog/internal/kernel"
	"groundhog/internal/runtimes"
)

// TestServeSteadyStateZeroAllocs pins the platform's request-serving path —
// deferred-rollback check, the manager's relay charge, invoke, restore-based
// cleanup — at zero heap allocations per request once the container is warm.
// This is the per-request cost the million-request fleet benchmark multiplies
// by: the meter is the platform's reused scratch, and the restore path reuses
// its own buffers (TestRestoreSteadyStateZeroAllocs).
func TestServeSteadyStateZeroAllocs(t *testing.T) {
	// A churn-free profile (LangC performs no per-request mmap/munmap layout
	// churn, and the uniform dirty set is precomputed): what remains is the
	// engine itself — metering, the relay, faults, restore — which must be free.
	// Churny languages pay for their per-request region naming by design.
	prof := runtimes.Profile{
		Name:         "alloc-guard",
		Lang:         runtimes.LangC,
		Exec:         2 * time.Millisecond,
		TotalPages:   2000,
		DirtyPages:   100,
		UniformDirty: true,
	}
	for _, mode := range []isolation.Mode{isolation.ModeBase, isolation.ModeGH} {
		t.Run(string(mode), func(t *testing.T) {
			pl, err := NewPlatform(kernel.Default(), prof, mode, 1, 42)
			if err != nil {
				t.Fatal(err)
			}
			c := pl.Containers()[0]
			// Warm the path: first requests grow the restore scratch and
			// meter accounts to their working sizes.
			for i := 0; i < 8; i++ {
				if _, err := pl.Serve(c, "caller"); err != nil {
					t.Fatal(err)
				}
				pl.Engine.RunUntil(c.Ready())
			}
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := pl.Serve(c, "caller"); err != nil {
					t.Fatal(err)
				}
				pl.Engine.RunUntil(c.Ready())
			})
			if allocs != 0 {
				t.Fatalf("%s serve allocated %.1f allocs/op, want 0", mode, allocs)
			}
		})
	}
}
