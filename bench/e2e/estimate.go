package main

import "sort"

// estimate turns a run's segments into its metrics. Every timing figure is
// a segment's raw host time brought to reference speed by the two probes
// around it; the run reports the median over segments (a rate is the
// inverse of the median cost). Counts are totals over the measured
// segments and are not normalised. Traced segments feed only the
// trace-overhead figure (their CPU per request against the others').
func (r *runResult) estimate(p *prober) {
	var wallUs, cpuUs, setupS, lat, late, burst, rawWallUs, tracedCPUUs []float64
	var mallocs, bytes, requests float64
	for _, s := range r.segs {
		if s.traced {
			tracedCPUUs = append(tracedCPUUs, s.cpuNs*s.scale/float64(s.requests)/1e3)
			continue
		}
		wallUs = append(wallUs, s.wallNs*s.scale/float64(s.requests)/1e3)
		rawWallUs = append(rawWallUs, s.wallNs/float64(s.requests)/1e3)
		cpuUs = append(cpuUs, s.cpuNs*s.scale/float64(s.requests)/1e3)
		if s.setupNs > 0 {
			setupS = append(setupS, s.setupNs*s.scale/1e9)
		}
		for _, l := range s.lat {
			lat = append(lat, l*s.latScale/1e3)
		}
		for _, l := range s.late {
			late = append(late, l/1e3)
		}
		if s.burstReq > 0 {
			burst = append(burst, s.burstNs*s.scale/float64(s.burstReq)/1e3)
		}
		mallocs += s.mallocs
		bytes += s.bytes
		requests += float64(s.requests)
	}
	if len(setupS) > 0 {
		r.e2e["setup_s"] = median(setupS)
	}
	busyUs := median(wallUs)
	if len(burst) > 0 {
		busyUs = median(burst)
	}
	r.e2e["req_per_s"] = 1e6 / busyUs
	r.e2e["cpu_us_per_req"] = median(cpuUs)
	r.e2e["lat_p50_us"] = median(wallUs)
	if len(lat) > 0 {
		sort.Float64s(lat) // a live run pools ~10^6 samples: sort them once
		r.e2e["lat_p50_us"] = percentileSorted(lat, 50)
	}
	r.e2e["allocs_per_req"] = mallocs / requests
	r.e2e["alloc_kb_per_req"] = bytes / 1024 / requests

	r.addDiag("segments", float64(len(wallUs)), "count")
	r.addDiag("requests", requests, "count")
	r.addDiag("raw_wall_us_per_req", median(rawWallUs), "us")
	r.addDiag("wall_us_per_req", median(wallUs), "us")
	r.addDiag("wall_us_per_req_iqr_pct", 100*(percentile(wallUs, 75)-percentile(wallUs, 25))/median(wallUs), "%")
	if len(lat) > 0 {
		r.addDiag("lat_samples", float64(len(lat)), "count")
		for _, q := range []struct {
			name string
			p    float64
		}{{"lat_p95_us", 95}, {"lat_p99_us", 99}} {
			r.addDiag(q.name, percentileSorted(lat, q.p), "us")
			r.addDiag(q.name+"_samples_beyond", float64(len(lat))*(100-q.p)/100, "count")
		}
	}
	if len(late) > 0 {
		r.addDiag("pacer_late_p50_us", median(late), "us")
		r.addDiag("pacer_late_max_us", percentile(late, 100), "us")
	}
	if len(tracedCPUUs) > 0 { // CPU, not wall: an open loop's wall time is its schedule
		r.addDiag("trace_overhead_pct", 100*(median(tracedCPUUs)/median(cpuUs)-1), "%")
	}
	r.addDiag("calib_ms", median(p.ms), "ms")
	r.addDiag("calib_spread", p.spread(), "ratio")
}
