// Fleet: a provider's view of Groundhog at quick scale. Three functions
// share one simulated host with dynamically scaled container pools, keep-alive
// reaping, and bursty Azure-style arrivals; the same trace runs with
// keep-alive-only scale-out against snapshot-clone scale-out with
// scale-to-zero image eviction, and then under the three scheduling
// policies. The same mix under plain container reuse (BASE) against
// Groundhog (GH) is `go run ./cmd/ghbench -e fleet`.
//
//	go run ./examples/fleet
package main

import (
	"fmt"
	"log"

	"groundhog/internal/experiments"
)

func main() {
	fmt.Println("Simulating a bursty multi-function mix with clone-aware scheduling...")
	fmt.Println("(identical arrivals; the only variable is how scale-ups cold-start)")
	fmt.Println()
	res, err := experiments.FleetBench(experiments.Default(), true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(experiments.FleetBenchTable(res).Render())
	fmt.Println("Reading the table: the clone fleet serves the same requests but pays")
	fmt.Printf("%.0fx less for scale-ups (snapshot clones instead of full pipelines)\n", res.ColdStartSavingsX)
	fmt.Println("and peaks far lower on frames — clones share the warm image copy-on-write.")
	fmt.Println()

	fmt.Println("Now the same mix under the three scheduling policies...")
	fmt.Println("(identical arrivals; the only variable is when the fleet scales)")
	fmt.Println()
	pres, err := experiments.PolicyBench(experiments.Default(), true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(experiments.PolicyBenchTable(pres).Render())
	fmt.Println("Reading the table: fixed-ttl is the classic reaper's operating point;")
	fmt.Println("slo-aware scales to zero between bursts (clone revivals are nearly free,")
	fmt.Printf("so it meets the p95 target on %.1fx less mean memory); cost-min reaps and\n", pres.FrameSavingsX)
	fmt.Println("evicts on a rent model, ignoring latency — the frontier's third corner.")
}
