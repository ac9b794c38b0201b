// Platform: deploy a real catalog benchmark on the simulated OpenWhisk-like
// platform under BASE, GH-NOP and GH, and compare cold start, request
// latency, restore cost, and saturated throughput — one benchmark's slice of
// the paper's evaluation.
//
//	go run ./examples/platform
//	go run ./examples/platform "bicg (c)"      # any catalog display name
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"groundhog/internal/catalog"
	"groundhog/internal/faas"
	"groundhog/internal/isolation"
	"groundhog/internal/kernel"
	"groundhog/internal/metrics"
)

func main() {
	name := "sentiment (p)"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	entry, err := catalog.Lookup(name)
	if err != nil {
		log.Fatal(err)
	}
	prof := entry.Prof
	fmt.Printf("benchmark %s: exec %v, %d-page footprint, %d pages written/request\n\n",
		prof.DisplayName(), prof.Exec, prof.TotalPages, prof.DirtyPages)

	tab := metrics.NewTable("deployment comparison",
		"mode", "cold start", "invoker lat (ms)", "E2E lat (ms)", "restore (ms)", "tput (req/s)")
	for _, mode := range []isolation.Mode{isolation.ModeBase, isolation.ModeGHNop, isolation.ModeGH} {
		pl, err := faas.NewPlatform(kernel.Default(), prof, mode, 1, 1)
		if err != nil {
			log.Fatal(err)
		}
		cold := pl.Containers()[0].ColdStart().Total
		stats, err := pl.RunClosedLoop(15, 30*time.Millisecond)
		if err != nil {
			log.Fatal(err)
		}
		var inv, e2e, restore metrics.Summary
		for _, st := range stats {
			inv.AddDuration(st.Invoker)
			e2e.AddDuration(st.E2E)
			if st.Restored {
				restore.AddDuration(st.Cleanup)
			}
		}

		plT, err := faas.NewPlatform(kernel.Default(), prof, mode, 4, 2)
		if err != nil {
			log.Fatal(err)
		}
		res, err := plT.RunSaturated(8)
		if err != nil {
			log.Fatal(err)
		}

		restoreCell := "-"
		if restore.N() > 0 {
			restoreCell = fmt.Sprintf("%.2f", restore.Mean())
		}
		tab.AddRow(string(mode),
			cold.Round(time.Millisecond).String(),
			fmt.Sprintf("%.2f", inv.Mean()),
			fmt.Sprintf("%.2f", e2e.Mean()),
			restoreCell,
			fmt.Sprintf("%.1f", res.RequestsPerSec))
	}
	fmt.Println(tab.Render())
	fmt.Println("GH adds only tracking faults on the critical path; restoration runs between requests.")
}
