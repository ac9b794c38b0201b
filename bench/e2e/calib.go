package main

import (
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// CalibRefMS and EchoRefMS are the probe times, in milliseconds, that define
// "reference speed": every host-time figure the harness reports is
// raw × CalibRefMS / (mean of the two probes adjacent to its segment), so
// the units stay real units on a machine that runs the probes in exactly
// these times. They are recorded in the README's noise study; changing one
// rescales every timing metric and therefore needs a re-baseline.
const (
	CalibRefMS = 50.0 // the compute kernel
	EchoRefMS  = 16.0 // the socket kernel
)

const (
	calibPage   = 4096
	calibPages  = 16384 // 64 MiB: past the 4 MiB L2, inside the working set the simulators touch
	calibCopies = 30000
	calibALU    = 6_000_000
	echoTrips   = 2500
	echoBytes   = 512
)

// socketShare is the share of a workload's cost per request that is socket
// and scheduler work rather than computation: on live-closed, the part of
// the round trip that is not the invoke. It weights the two probe kernels
// for throughput and CPU per request; client latencies are scaled by the
// compute kernel alone. Both choices are empirical, from a 400 s log of
// live-closed cut into 22 s pseudo-runs: run medians of cost per request
// spread 2.7% / 1.2% / 3.6% at socket weights 0 / 0.5 / 1, those of p50
// latency 2.4% / 5.4% / 8.6%. live-open gained nothing from the socket
// kernel (nor from a kernel that sleeps before each slice of work) and uses
// the compute kernel alone.
var socketShare = map[string]float64{wlLiveClosed: 0.5}

// prober times two fixed harness kernels that slow down with the machine
// the way the program does. The compute kernel — random 4 KiB page copies
// inside a buffer much larger than L2, then a dependent integer loop —
// tracks the memmove- and branch-heavy request path. The socket kernel —
// round trips over a harness-owned TCP loopback connection between two
// goroutines — tracks what a live round trip spends in the kernel's socket
// path and in waking the peer, which the compute kernel does not see at
// all (r = 0.1 between the two). The machine's noise is plateaus of a
// second or two on top of a slower drift (a shared 2-vCPU box without a
// PMU), so a probe before and after a short segment brackets the speed the
// segment ran at.
type prober struct {
	buf  []byte
	idx  []uint32 // fixed random page pairs: the kernel's work never varies
	sink uint64
	ms   []float64 // every probe taken, for harness.calib_* diagnostics

	share float64 // weight of the socket kernel in a reading's blend
	echo  net.Conn
	msg   []byte
}

// newProber maps the probe buffer outside the Go heap, so it neither counts
// in heap_mb nor stretches the collector's pacing for the program under
// test.
func newProber() (*prober, error) {
	buf, err := syscall.Mmap(-1, 0, calibPages*calibPage, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("calibration buffer: %w", err)
	}
	p := &prober{buf: buf, idx: make([]uint32, 2*calibCopies), msg: make([]byte, echoBytes)}
	for i := range p.buf {
		p.buf[i] = byte(i * 7)
	}
	r := splitmix(0x9e3779b97f4a7c15)
	for i := range p.idx {
		p.idx[i] = uint32(r.next() % calibPages)
	}
	return p, nil
}

// weigh sets the socket kernel's weight for the probes that follow,
// connecting the echo link on first use.
func (p *prober) weigh(share float64) error {
	p.share = share
	if share == 0 || p.echo != nil {
		return nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	go func() { // ends when close() closes the client side
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		b := make([]byte, echoBytes)
		for {
			if _, err := io.ReadFull(c, b); err != nil {
				return
			}
			if _, err := c.Write(b); err != nil {
				return
			}
		}
	}()
	if p.echo, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		return err
	}
	p.roundTrips() // the first trips set the connection up
	return nil
}

func (p *prober) close() {
	if p.echo != nil {
		_ = p.echo.Close()
	}
}

func (p *prober) roundTrips() float64 {
	start := time.Now()
	for i := 0; i < echoTrips; i++ {
		if _, err := p.echo.Write(p.msg); err != nil {
			break // a dead link reads as an impossibly fast probe; the run's checks fail elsewhere
		}
		if _, err := io.ReadFull(p.echo, p.msg); err != nil {
			break
		}
	}
	return float64(time.Since(start)) / 1e6
}

// reading is one probe: the compute kernel's time in milliseconds, and the
// time it would have taken had it been slowed by the weighted mean of the
// two kernels (equal to comp at socket weight 0).
type reading struct{ comp, blend float64 }

// probe runs the kernels once.
func (p *prober) probe() reading {
	start := time.Now()
	b := p.buf
	for i := 0; i < len(p.idx); i += 2 {
		d, s := int(p.idx[i])*calibPage, int(p.idx[i+1])*calibPage
		copy(b[d:d+calibPage], b[s:s+calibPage])
	}
	x := p.sink | 1
	for i := 0; i < calibALU; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		if x&0x10000 != 0 {
			x ^= x >> 29
		}
	}
	p.sink = x + uint64(b[int(x%uint64(len(b)))])
	r := reading{comp: float64(time.Since(start)) / 1e6}
	r.blend = r.comp
	if p.share > 0 {
		r.blend = (1-p.share)*r.comp + p.share*p.roundTrips()*CalibRefMS/EchoRefMS
	}
	p.ms = append(p.ms, r.blend)
	return r
}

// scale is the factor that brings a raw host time measured between two
// probes to reference speed.
func scale(before, after float64) float64 { return CalibRefMS / ((before + after) / 2) }

// spread reports (p90-p10)/p50 of the probes taken: how much the machine
// moved during the run.
func (p *prober) spread() float64 {
	if len(p.ms) < 3 {
		return 0
	}
	return (percentile(p.ms, 90) - percentile(p.ms, 10)) / percentile(p.ms, 50)
}

// splitmix is the harness's own seeded generator (inputs must not depend on
// the program's RNG, so a program change cannot move the workload).
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform draw in (0, 1].
func (s *splitmix) float() float64 { return (float64(s.next()>>11) + 1) / (1 << 53) }

// counters is one reading of everything a segment is costed in.
type counters struct {
	wall    time.Time
	cpuNs   int64
	mallocs uint64
	bytes   uint64
}

func readCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := ru.Utime.Nano() + ru.Stime.Nano()
	return counters{wall: time.Now(), cpuNs: cpu, mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// cost is one segment's raw bill: host wall and CPU nanoseconds, heap
// objects and bytes allocated, for `requests` completed, verified requests.
type cost struct {
	requests int
	wallNs   float64
	cpuNs    float64
	mallocs  float64
	bytes    float64
}

func (a counters) since(b counters, requests int) cost {
	return cost{
		requests: requests,
		wallNs:   float64(a.wall.Sub(b.wall)),
		cpuNs:    float64(a.cpuNs - b.cpuNs),
		mallocs:  float64(a.mallocs - b.mallocs),
		bytes:    float64(a.bytes - b.bytes),
	}
}

// percentile returns the p-th percentile (linear interpolation) of xs,
// which it leaves unmodified.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }
