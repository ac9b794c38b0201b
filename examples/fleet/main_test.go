package main

// Example runs the clone-aware and policy comparisons at quick scale and
// pins both tables and the ratios the prose quotes.
func Example() {
	main()
	// Output:
	// Simulating a bursty multi-function mix with clone-aware scheduling...
	// (identical arrivals; the only variable is how scale-ups cold-start)
	//
	// # Clone-aware fleet scheduling: 3 functions, gh, 2000 ms window (keep-alive cold-start bill 537.4x the clone fleet's)
	// metric                             keep-alive only  clone scale-out
	// ---------------------------------  ---------------  ---------------
	// requests                           150              150
	// full cold starts                   12               0
	// clone cold starts                  0                9
	// cold-start cost (virtual ms)       7236.2           13.5
	// E2E p50 (ms)                       29.4             29.0
	// E2E p95 (ms)                       68.7             58.3
	// queue p95 (ms)                     12.7             0.8
	// peak frames                        45050            13360
	// frames after drain                 41853            6801
	// reaped / scaled-to-zero / evicted  4 / 0 / 0        2 / 0 / 0
	//
	// Reading the table: the clone fleet serves the same requests but pays
	// 537x less for scale-ups (snapshot clones instead of full pipelines)
	// and peaks far lower on frames — clones share the warm image copy-on-write.
	//
	// Now the same mix under the three scheduling policies...
	// (identical arrivals; the only variable is when the fleet scales)
	//
	// # Scheduling policies: 3 functions, gh, 2000 ms window, p95 target 100 ms (fixed-ttl holds 2.0x the slo-aware fleet's mean frames)
	// metric                             fixed-ttl  slo-aware   cost-min
	// ---------------------------------  ---------  ----------  -----------
	// requests                           150        150         150
	// full / clone cold starts           0 / 9      0 / 21      0 / 29
	// cold-start cost (virtual ms)       13.5       26.2        35.5
	// E2E p50 (ms)                       29.0       29.6        29.1
	// E2E p95 (ms)                       58.3       58.9        58.8
	// worst-function p95 (ms)            62.2       63.0        63.1
	// SLO met                            true       true        true
	// mean frames                        9961       4984        3800
	// peak frames                        13360      13186       13186
	// frames after drain                 6801       3139        3139
	// reaped / scaled-to-zero / evicted  2 / 0 / 0  19 / 5 / 0  27 / 11 / 0
	//
	// Reading the table: fixed-ttl is the classic reaper's operating point;
	// slo-aware scales to zero between bursts (clone revivals are nearly free,
	// so it meets the p95 target on 2.0x less mean memory); cost-min reaps and
	// evicts on a rent model, ignoring latency — the frontier's third corner.
}
