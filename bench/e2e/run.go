package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// runOpts selects one run of one workload.
type runOpts struct {
	seed    uint64
	seconds float64 // how long the measured segments (and their probes) last
	minSegs int     // lower bound on measured segments, whatever the clock says
	sz      sizes   // the fixed work of a segment and of a bring-up
	// profScale and spin are the self-check's perturbations: the simulators'
	// profiles are scaled, the live listeners burn spin CPU per request in a
	// harness shim. 1 and 0 on ordinary runs.
	profScale float64
	spin      time.Duration
	// spans, when set, makes this a traced run: every other segment records
	// a span per request (live) or per step (simulators), and the run
	// reports what that recording costs.
	spans *spanLog
}

// segment is one fixed-work slice of a run with the speed it ran at.
type segment struct {
	cost
	scale    float64   // brings raw host time to reference speed
	latScale float64   // the same for client latencies (compute kernel only)
	setupNs  float64   // simulators: raw host ns of construct+deploy before Run
	lat      []float64 // live: raw client latencies, ns
	late     []float64 // live-open: how late each send left, ns
	burstNs  float64   // live-open: raw wall ns of the back-to-back capacity burst
	burstReq int
	traced   bool
}

// calibrate records the speed the segment ran at from the probes around it.
func (s *segment) calibrate(before, after reading) {
	s.scale, s.latScale = scale(before.blend, after.blend), scale(before.comp, after.comp)
}

// runResult is everything one run reports.
type runResult struct {
	workload  string
	e2e       map[string]float64
	diag      []metricLine
	attempted int
	failed    int
	errs      []string
	digest    string
	segs      []segment
}

type metricLine struct {
	name  string
	value float64
	unit  string
}

func (r *runResult) fail(format string, args ...any) {
	r.failed++
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

func (r *runResult) addDiag(name string, v float64, unit string) {
	r.diag = append(r.diag, metricLine{name, v, unit})
}

// runWorkload runs one workload end to end and derives its metrics.
func runWorkload(name string, o runOpts, p *prober) (*runResult, error) {
	if o.profScale == 0 {
		o.profScale = 1
	}
	if o.sz.bringUps == 0 {
		o.sz = fullSizes
	}
	res := &runResult{workload: name, e2e: map[string]float64{}}
	err := p.weigh(socketShare[name])
	if err != nil {
		return nil, err
	}
	switch name {
	case wlSimHead, wlClusterChurn:
		err = runSim(res, o, p)
	case wlLiveClosed, wlLiveOpen:
		err = runLive(res, o, p)
	default:
		err = fmt.Errorf("unknown workload %q (have %v)", name, workloadOrder)
	}
	if err != nil {
		return nil, err
	}
	res.estimate(p)
	return res, nil
}

// measuring reports whether the run should take another segment.
func measuring(start time.Time, n int, o runOpts) bool {
	return n < o.minSegs || time.Since(start).Seconds() < o.seconds
}

// subSeed derives segment i's seed from the run seed: every segment of a
// run offers the program a different draw of the same workload, so a run's
// median is a property of the workload rather than of one sample of it.
func subSeed(seed uint64, i int) uint64 {
	r := splitmix(seed*0x9e3779b97f4a7c15 + uint64(i))
	return r.next() >> 1
}

// runSim drives a simulator workload. Each segment constructs a fresh
// fleet or cluster (set-up, timed apart) and runs its window (the measured
// part). Segment 0's seed is run twice before measuring (warm-up): the two
// digests must agree. Every measured segment's instance is kept live for a
// heap reading before it is torn down, and the run reports their median,
// so heap_mb does not hang on one draw of the workload.
func runSim(res *runResult, o runOpts, p *prober) error {
	build, window := simBuilders[res.workload], o.sz.window[res.workload]
	var heapBase float64 // live heap just before the latest instance was built
	one := func(i int) (segment, simOutcome, error) {
		heapBase = heapMiB()
		c0 := readCounters()
		run, err := build(subSeed(o.seed, i), window, o.profScale)
		if err != nil {
			return segment{}, simOutcome{}, err
		}
		c1 := readCounters()
		out, err := run()
		if err != nil {
			return segment{}, simOutcome{}, err
		}
		c2 := readCounters()
		res.attempted += out.requests + out.lost
		if out.lost != 0 {
			res.failed += out.lost
			res.errs = append(res.errs, fmt.Sprintf("segment %d lost %d requests", i, out.lost))
		}
		return segment{cost: c2.since(c1, out.requests), setupNs: float64(c1.wall.Sub(c0.wall))}, out, nil
	}
	release := func(i int, out simOutcome) {
		if leaked := out.teardown(); leaked != 0 {
			res.fail("segment %d leaked %d frames", i, leaked)
		}
	}
	for _, stage := range []string{"warm-up", "repeat"} {
		_, out, err := one(0)
		if err != nil {
			return err
		}
		if res.digest == "" {
			res.digest = out.digest
		} else if out.digest != res.digest {
			res.fail("%s: digest %s differs from the first run of the same seed %s", stage, out.digest[:12], res.digest[:12])
		}
		release(0, out)
	}

	var colds, transfers int
	var heaps []float64
	before := p.probe()
	start := time.Now()
	for i := 1; measuring(start, i-1, o); i++ {
		traced := o.spans != nil && i%2 == 0
		t0 := time.Now()
		seg, out, err := one(i)
		if err != nil {
			return err
		}
		if traced {
			end := time.Now()
			root := o.spans.add(0, i, res.workload+".segment", t0, end, out.requests)
			mid := t0.Add(time.Duration(seg.setupNs))
			o.spans.add(root, i, res.workload+".build", t0, mid, 1)
			o.spans.add(root, i, res.workload+".run", mid, end, out.requests)
		}
		after := p.probe()
		seg.calibrate(before, after)
		seg.traced, before = traced, after
		heaps = append(heaps, heapMiB()-heapBase)
		release(i, out)
		colds += out.coldStarts
		transfers += out.transfers
		res.segs = append(res.segs, seg)
	}

	res.e2e["heap_mb"] = median(heaps)
	total := 0
	for _, s := range res.segs {
		total += s.requests
	}
	res.addDiag("cold_starts_per_kreq", 1000*float64(colds)/float64(total), "count")
	res.addDiag("transfers_per_kreq", 1000*float64(transfers)/float64(total), "count")
	return nil
}

// heapMiB reads the live heap after a collection. heap_mb is the difference
// between two readings — system up, less just before it was built — so
// what the harness itself holds (results, latency samples) cancels.
func heapMiB() float64 {
	runtime.GC()
	runtime.GC() // the second cycle empties sync.Pool's victim caches
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// liveClients is the harness side of a live workload.
type liveClients struct {
	bin  []*binWorker
	http []*httpWorker
}

func (c *liveClients) close() {
	for _, w := range c.bin {
		_ = w.c.Close()
	}
	if len(c.http) > 0 {
		c.http[0].client.CloseIdleConnections()
	}
}

// bringUp starts a serving stack, connects the workload's clients, sends
// the first (cold) request and the warm-up requests. It is the live
// workloads' set-up, timed as a whole.
func bringUp(workload string, o runOpts, r *splitmix) (*liveSystem, *liveClients, tally, error) {
	sys, err := startLive(o.spin)
	if err != nil {
		return nil, nil, tally{}, err
	}
	c := &liveClients{}
	var t tally
	if workload == wlLiveClosed {
		for i := 0; i < liveClosedConns; i++ {
			w, err := dialBin(sys.binLn.Addr().String(), liveClosedFn, payload(r, liveClosedBody))
			if err != nil {
				c.close()
				sys.stop()
				return nil, nil, tally{}, err
			}
			c.bin = append(c.bin, w)
		}
		for _, w := range c.bin {
			_, o := w.do(o.sz.warmup/len(c.bin), nil)
			t.add(o)
		}
	} else {
		c.http = newHTTPWorkers(sys.httpLn.Addr().String(), liveOpenFn, liveOpenWorkers, r)
		for i := 0; i < o.sz.warmup; i++ {
			t.add(c.http[i%len(c.http)].post(uint64(i)))
		}
	}
	return sys, c, t, nil
}

// runLive drives a live workload: several timed bring-ups (the last one is
// kept), then fixed-work segments against it.
func runLive(res *runResult, o runOpts, p *prober) error {
	r := splitmix(o.seed)
	var sys *liveSystem
	var clients *liveClients
	var setups []float64
	var heapBase float64 // live heap just before the stack now serving was built
	okOnLast := 0
	for k := 0; k < o.sz.bringUps; k++ {
		if sys != nil {
			clients.close()
			if leaked := sys.stop(); leaked != 0 {
				res.fail("bring-up %d: %v", k, errLeaked("server", leaked))
			}
			sys, clients = nil, nil // or the stack just stopped would sit in the heap baseline
		}
		heapBase = heapMiB()
		before := p.probe()
		t0 := time.Now()
		var t tally
		var err error
		if sys, clients, t, err = bringUp(res.workload, o, &r); err != nil {
			return err
		}
		d := time.Since(t0)
		setups = append(setups, float64(d)*scale(before.comp, p.probe().comp)/1e9)
		res.count(t, fmt.Sprintf("bring-up %d", k))
		okOnLast = t.ok
	}
	res.e2e["setup_s"] = median(setups)

	before := p.probe()
	start := time.Now()
	for i := 1; measuring(start, i-1, o); i++ {
		traced := o.spans != nil && i%2 == 0
		var rec *spanLog
		if traced {
			rec = o.spans
		}
		runtime.GC()
		var seg segment
		var t tally
		if res.workload == wlLiveClosed {
			seg, t = closedSegment(clients.bin, i, o.sz.perConn, rec)
		} else {
			seg, t = openSegment(clients.http, i, o.sz, &r, rec)
		}
		after := p.probe()
		seg.calibrate(before, after)
		seg.traced, before = traced, after
		res.count(t, fmt.Sprintf("segment %d", i))
		okOnLast += t.ok
		res.segs = append(res.segs, seg)
	}

	snap := sys.gw.Snapshot()
	if int(snap.Served) != okOnLast {
		res.fail("gateway served %d requests, clients verified %d", snap.Served, okOnLast)
	}
	res.addDiag("gateway_rejected", float64(snap.Rejected), "count")
	samples := 0 // the harness's own growth since heapBase: the latency samples
	for _, s := range res.segs {
		samples += cap(s.lat) + cap(s.late)
	}
	res.e2e["heap_mb"] = heapMiB() - heapBase - float64(samples*8)/(1<<20)
	clients.close()
	if leaked := sys.stop(); leaked != 0 {
		res.fail("%v", errLeaked("server", leaked))
	}
	return nil
}

func (r *runResult) count(t tally, where string) {
	r.attempted += t.ok + t.failed()
	if n := t.failed(); n > 0 {
		r.failed += n
		r.errs = append(r.errs, fmt.Sprintf("%s: %+v", where, t))
	}
}

// closedSegment sends perConn requests down every connection at once, each
// connection back to back.
func closedSegment(ws []*binWorker, seg, perConn int, rec *spanLog) (segment, tally) {
	lats := make([][]float64, len(ws))
	tallies := make([]tally, len(ws))
	var wg sync.WaitGroup
	c0 := readCounters()
	for i, w := range ws {
		wg.Add(1)
		go func(i int, w *binWorker) {
			defer wg.Done()
			w.rec, w.seg = rec, seg
			lats[i], tallies[i] = w.do(perConn, make([]float64, 0, perConn))
		}(i, w)
	}
	wg.Wait()
	c1 := readCounters()
	var t tally
	var lat []float64
	for i := range ws {
		t.add(tallies[i])
		lat = append(lat, lats[i]...)
	}
	rec.add(0, seg, wlLiveClosed+".segment", c0.wall, c1.wall, t.ok)
	return segment{cost: c1.since(c0, t.ok), lat: lat}, t
}

// openSegment offers one seeded Poisson schedule, then sends a short
// back-to-back burst on one connection: the open loop gives the latency and
// the cost per request of a server woken per request, the burst gives the
// rate the same path sustains when kept busy.
func openSegment(ws []*httpWorker, seg int, sz sizes, r *splitmix, rec *spanLog) (segment, tally) {
	due := poissonSchedule(r, sz.arrivals, liveOpenRate)
	seqBase := uint64(seg) << 32
	for _, w := range ws {
		w.rec, w.seg = rec, seg
	}
	c0 := readCounters()
	lat, late, t := openLoop(ws, due, seqBase)
	c1 := readCounters()
	rec.add(0, seg, wlLiveOpen+".segment", c0.wall, c1.wall, t.ok)
	s := segment{cost: c1.since(c0, t.ok), lat: lat, late: late}

	ws[0].rec = nil
	b0 := time.Now()
	for i := 0; i < sz.burst; i++ {
		o := ws[0].post(seqBase + uint64(len(due)+i))
		t.add(o)
		s.burstReq += o.ok
	}
	s.burstNs = float64(time.Since(b0))
	return s, t
}
