package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// A traced run spends 0.3 of --seconds on end-to-end segments (alternately
// with and without span recording) and the rest on the ladder's rungs:
// ladderSteps timed steps in ladderCycles cycles, each cycle ending in a
// probe.
const (
	ladderSteps  = 42
	ladderCycles = 27
)

// tracedRun is a --trace 1 run: the per-layer ladder for the workload's
// representative function, a short end-to-end pass that prices the span
// recording itself, and the span log written under outDir.
func tracedRun(name string, o runOpts, p *prober, outDir string) (report, error) {
	spans := newSpanLog()
	eo := o
	eo.seconds, eo.minSegs, eo.spans = 0.3*o.seconds, 4, spans
	res, err := runWorkload(name, eo, p)
	if err != nil {
		return report{}, err
	}
	prof, err := profileOf(representative[name])
	if err != nil {
		return report{}, err
	}
	perRung := time.Duration((0.6*o.seconds - ladderCycles*CalibRefMS/1e3) / ladderSteps * float64(time.Second))
	ld := &ladder{p: p, spans: spans, perRung: max(perRung, 5*time.Millisecond), m: map[string]float64{}, spanID: map[string]int{}}
	ld.run(name, prof)

	m := ld.m
	diag := map[string]float64{}
	for _, d := range res.diag {
		diag[d.name] = d.value
	}
	m["gateway.rejected"] = diag["gateway_rejected"]
	m["harness.calib_ms"] = median(p.ms)
	m["harness.calib_spread"] = p.spread()
	m["harness.pacer_late_us"] = diag["pacer_late_p50_us"]
	m["harness.trace_overhead_pct"] = diag["trace_overhead_pct"]
	m["harness.ladder_coverage"] = coverage(name, m, res.e2e, diag)

	rep := report{Attempted: res.attempted, Failed: res.failed + len(ld.errs), Metrics: map[string]metricValue{},
		errs: append(res.errs, ld.errs...)}
	for _, d := range perLayer {
		v, ok := m[d.name]
		if !ok {
			rep.Failed++
			rep.errs = append(rep.errs, "ladder did not measure "+d.name)
		}
		rep.Metrics[d.name] = metricValue{v, d.unit}
		rep.lines = append(rep.lines, metricLine{d.name, v, d.unit})
	}
	rep.Correct = rep.Failed == 0

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return report{}, err
	}
	if err := spans.write(filepath.Join(outDir, "spans-"+name+".jsonl")); err != nil {
		return report{}, err
	}
	blob, err := json.MarshalIndent(rep.Metrics, "", "  ")
	if err != nil {
		return report{}, err
	}
	if err := os.WriteFile(filepath.Join(outDir, "ladder-"+name+".json"), blob, 0o644); err != nil {
		return report{}, err
	}
	fmt.Printf("%s.spans %d count\n", name, len(spans.spans))
	return rep, nil
}

// coverage is the share of a workload's end-to-end cost per request that
// the ladder's rungs add up to: the self times along the workload's path
// telescope to its top rung (plus, on the live paths, what the top rung
// leaves out), over what the end-to-end pass measured. Near 1 the ladder
// explains the workload; far from 1 the representative function does not
// stand for the mix, and the layer shares should not be read as the
// workload's.
func coverage(workload string, m, e2e, diag map[string]float64) float64 {
	switch workload {
	case wlSimHead:
		return m["trace.fleet.ns_per_req"] / (diag["wall_us_per_req"] * 1e3)
	case wlClusterChurn:
		return m["cluster.run.ns_per_req"] / (diag["wall_us_per_req"] * 1e3)
	case wlLiveClosed:
		return (m["transport.tcp.ns"] + m["server.invoke.wait_ns"]) / (e2e["lat_p50_us"] * 1e3)
	default:
		return (m["gateway.http.ns"] + 1e3*diag["pacer_late_p50_us"]) / (e2e["lat_p50_us"] * 1e3)
	}
}
