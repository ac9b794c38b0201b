// Command ghreal validates the simulation's soft-dirty semantics against
// the running Linux kernel: it performs a miniature in-process Groundhog
// cycle (fill → snapshot → clear_refs → dirty → pagemap scan → restore →
// byte-level verify) on a real anonymous mapping, using the same /proc
// interfaces as the paper's implementation (§4.2-§4.3).
//
//	go run ./cmd/ghreal -pages 256 -dirty 16
//
// Requires a kernel built with CONFIG_MEM_SOFT_DIRTY (stock kernels v3.11+;
// note the soft-dirty accuracy bug the authors found and had fixed in
// v5.12 [32]). Reports "unsupported" otherwise.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"groundhog/internal/realcheck"
)

func main() {
	var (
		pages = flag.Int("pages", 256, "pages in the test region")
		dirty = flag.Int("dirty", 16, "pages the simulated request writes")
	)
	flag.Parse()

	writes := make([]int, 0, *dirty)
	for i := 0; i < *dirty; i++ {
		writes = append(writes, i*(*pages/max(*dirty, 1))%*pages)
	}
	res, err := realcheck.Run(*pages, writes)
	if errors.Is(err, realcheck.ErrUnsupported) {
		fmt.Printf("unsupported: %v\n", err)
		fmt.Println("(the simulated kernel in internal/vm models exactly this mechanism;")
		fmt.Println(" run on a kernel with CONFIG_MEM_SOFT_DIRTY to cross-check it)")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ghreal: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("region: %d pages; wrote %d pages after clear_refs\n", res.Pages, len(res.Written))
	fmt.Printf("kernel reported %d soft-dirty pages (superset of the write set ✓)\n", len(res.ReportedDirty))
	fmt.Printf("restored %d pages from the snapshot; byte-level verify: %v\n", res.Restored, res.Verified)
	fmt.Println("the real kernel agrees with the simulated soft-dirty semantics")
}
