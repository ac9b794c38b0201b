package main

// metricDef is one registered metric. BENCHMARK.json lists the same names,
// units, directions and bounds; registry_test.go holds the two together.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the system sees, on every workload:
//
//   - setup_s: construct + deploy + first cold request (+ warm-up on the
//     live stacks), at reference speed.
//   - req_per_s: completed, verified requests per host wall-second while
//     the system is kept busy. sim-head, cluster-churn: the Run step.
//     live-closed: both connections. live-open: a back-to-back burst on one
//     HTTP connection after each open-loop schedule (the offered rate itself
//     is an input, not a result).
//   - cpu_us_per_req: process user+sys CPU per completed request.
//   - lat_p50_us: host time one request takes as its caller sees it. live-*:
//     client-observed, live-open from the instant the request was due. The
//     simulators have no per-request caller: there it is the median
//     segment's host time per simulated request.
//   - allocs_per_req, alloc_kb_per_req: heap objects and KiB allocated per
//     completed request.
//   - heap_mb: live heap after a collection with the system still up.
//
// A metric has one bound for all four workloads, so the noisiest workload
// sets it: at least three times the widest spread (IQR over median of ten
// runs on ten seeds) seen on any workload, and above the widest drift of a
// workload's ten-run median seen between studies hours apart (README.md
// has the numbers).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"req_per_s", "1/s", "higher", 0.20},
	{"cpu_us_per_req", "us", "lower", 0.25},
	{"lat_p50_us", "us", "lower", 0.25},
	{"allocs_per_req", "count", "lower", 0.06},
	{"alloc_kb_per_req", "KiB", "lower", 0.08},
	{"heap_mb", "MiB", "lower", 0.08},
}
