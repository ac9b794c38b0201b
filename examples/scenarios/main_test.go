package main

// Example runs the three workload scenarios and pins their table and the
// chain's stages.
func Example() {
	main()
	// Output:
	// Simulating the three workload scenarios on identical GH fleets...
	// (chain composition, external state, heterogeneous runtimes)
	//
	// # Workload scenarios: gh, 4000 ms window, seed 1
	// metric                               chain-pipeline     stateful-kv          runtime-profiles
	// -----------------------------------  -----------------  -------------------  ----------------
	// functions / chains                   4 / 1              3 / 0                3 / 0
	// requests (arrived / served / lost)   440 / 440 / 0      372 / 372 / 0        372 / 372 / 0
	// chains (started / completed / lost)  110 / 110 / 0      0 / 0 / 0            0 / 0 / 0
	// state ops (gets / puts)              0 / 0              506 / 580            0 / 0
	// cold starts (full / clone)           0 / 12             0 / 10               0 / 11
	// E2E p50 / p95 (ms)                   34.4 / 62.9        32.8 / 45.5          67.2 / 79.7
	// chain E2E p95 (ms)                   53.6               -                    -
	// SLO met (target ms)                  true (150)         true (150)           true (200)
	// peak frames / after drain / leaked   18481 / 17494 / 0  170321 / 168465 / 0  5597 / 5497 / 0
	//
	// Reading the table: every started chain completes all its stages
	// (started == completed, lost == 0 — crashes retry the stage request,
	// they never abandon the chain); the stateful fleet's latency includes
	// its get/put bill while the wipe guarantee is untouched; the three
	// runtime deployments of one function diverge in memory and tail only
	// through their overlays.
	//
	// Chain "ingest-compute-aggregate" stages:
	//   stage 1: [get-time (p)]
	//   stage 2: [json (p) durbin (c)]
	//   stage 3: [md2html (p)]
	// Chain end-to-end SLO: 400 ms; the aggregate stage holds warm capacity
	// via its per-function policy override (FixedTTL, 2 s keep-alive).
}
