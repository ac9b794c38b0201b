package realcheck

import (
	"errors"
	"testing"
)

// The real-kernel check validates the simulated soft-dirty semantics against
// the machine the tests run on. Kernels without CONFIG_MEM_SOFT_DIRTY (or
// locked-down /proc) skip rather than fail.
func run(t *testing.T, pages int, writes []int) *result {
	t.Helper()
	res, err := cycle(pages, writes)
	if errors.Is(err, ErrUnsupported) {
		t.Skipf("soft-dirty tracking unavailable: %v", err)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestKernelTracksWrites(t *testing.T) {
	const pages = 64
	writes := []int{0, 3, 7, 31, 32, 63}
	res := run(t, pages, writes)
	if !res.verified {
		t.Fatal("restore verification failed on the real kernel")
	}
	if len(res.written) != len(writes) {
		t.Fatalf("wrote %d pages, expected %d", len(res.written), len(writes))
	}
	// Soundness of the model: the kernel's dirty set covers the write set
	// (checked inside cycle) and does not wildly over-approximate. Go's
	// runtime shares the address space, so allow slack — but a tracker
	// reporting nearly everything dirty would invalidate Groundhog's
	// premise.
	if len(res.reportedDirty) > pages/2+len(writes) {
		t.Fatalf("kernel flagged %d/%d pages for %d writes — over-approximation too coarse",
			len(res.reportedDirty), pages, len(writes))
	}
}

func TestKernelCleanRun(t *testing.T) {
	res := run(t, 32, nil)
	if !res.verified {
		t.Fatal("verification failed")
	}
	if len(res.reportedDirty) > 4 {
		t.Fatalf("no writes issued, yet %d pages dirty", len(res.reportedDirty))
	}
}

func TestRejectsBadPageCount(t *testing.T) {
	if _, err := cycle(0, nil); err == nil {
		t.Fatal("zero pages accepted")
	}
}
