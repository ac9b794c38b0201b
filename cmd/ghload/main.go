// Command ghload drives a live Groundhog serving stack with real load and
// reports client-observed throughput and latency. By default it
// self-hosts: server + gateway + both listeners in-process on loopback,
// so one command drives the whole serving path with zero setup. Point
// it at an external ghserve with -url / -binary-addr instead. The numbers
// it prints are uncalibrated; the serving path's measured cost is
// bench/e2e's live-closed and live-open workloads.
//
//	ghload -duration 5s                       # closed loop, HTTP, self-hosted
//	ghload -transport binary -workers 16      # binary protocol
//	ghload -loop open -rate 2000 -burstiness 4
//	ghload -url http://localhost:8080 -fn 'json (p)' -mode fork
//
// Exit status is nonzero when the run saw any transport error, any lost
// (unaccounted) request, leaked snapshot frames at shutdown, or zero
// successful responses — CI's smoke steps (one per transport) lean on that
// contract.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"groundhog/internal/gateway"
	"groundhog/internal/isolation"
	"groundhog/internal/loadgen"
	"groundhog/internal/server"
)

func main() {
	var (
		urlFlag   = flag.String("url", "", "HTTP base URL of an external gateway (empty self-hosts in-process)")
		binFlag   = flag.String("binary-addr", "", "binary-protocol address of an external gateway (with -transport binary)")
		transport = flag.String("transport", "http", "transport: http or binary")
		loop      = flag.String("loop", "closed", "loop discipline: closed or open")
		workers   = flag.Int("workers", 8, "closed-loop concurrency")
		rate      = flag.Float64("rate", 500, "open-loop mean arrival rate per second")
		burst     = flag.Float64("burstiness", 1, "open-loop interarrival CoV (1 = Poisson)")
		duration  = flag.Duration("duration", 5*time.Second, "run length")
		fn        = flag.String("fn", "get-time (p)", "catalog function to invoke")
		mode      = flag.String("mode", "", "isolation mode (empty = server default, gh)")
		bodyBytes = flag.Int("body-bytes", 512, "request payload size (echoed and verified)")
		seed      = flag.Uint64("seed", 1, "open-loop arrival process seed")
		quiet     = flag.Bool("quiet", false, "suppress the live progress line")
	)
	flag.Parse()

	target, err := resolveTarget(*urlFlag, *binFlag, *transport)
	if err != nil {
		log.Fatalf("ghload: %v", err)
	}
	defer target.close()

	var dial loadgen.Dial
	switch *transport {
	case "http":
		dial = loadgen.HTTPDial(target.httpURL, *fn, isolation.Mode(*mode))
	case "binary":
		dial = loadgen.BinaryDial(target.binAddr, *fn, isolation.Mode(*mode))
	default:
		log.Fatalf("ghload: unknown -transport %q (want http or binary)", *transport)
	}

	cfg := loadgen.Config{
		Dial:       dial,
		Duration:   *duration,
		Body:       bodyOf(*bodyBytes),
		Seed:       *seed,
		Burstiness: *burst,
	}
	switch *loop {
	case "closed":
		cfg.Closed = true
		cfg.Workers = *workers
	case "open":
		cfg.Rate = *rate
	default:
		log.Fatalf("ghload: unknown -loop %q (want closed or open)", *loop)
	}
	if !*quiet {
		cfg.Report = os.Stderr
	}

	res, err := loadgen.Run(cfg)
	printResult(res)
	if err != nil {
		log.Fatalf("ghload: %v", err)
	}
	if res.OK == 0 {
		log.Fatal("ghload: zero successful requests")
	}
	if res.Lost != 0 {
		log.Fatalf("ghload: %d requests fired but never accounted", res.Lost)
	}
	if leaked := target.close(); leaked != 0 {
		log.Fatalf("ghload: shutdown leaked %d snapshot frames", leaked)
	}
}

func bodyOf(n int) []byte {
	body := make([]byte, n)
	for i := range body {
		body[i] = byte('a' + i%26)
	}
	return body
}

func printResult(res loadgen.Result) {
	fmt.Printf("requests %d  ok %d  rejected %d  transient %d  errors %d  lost %d\n",
		res.Requests, res.OK, res.Rejected, res.Transient, res.Errors, res.Lost)
	fmt.Printf("wall %.2fs  throughput %.0f ok/s  latency p50 %.2fms p95 %.2fms p99 %.2fms\n",
		res.Wall.Seconds(), res.PerSec, res.P50Ms, res.P95Ms, res.P99Ms)
}

// target is where the load goes: either an external gateway or a
// self-hosted stack whose close() tears everything down and reports
// leaked snapshot frames.
type target struct {
	httpURL string
	binAddr string
	close   func() (leakedFrames int)
}

// resolveTarget self-hosts a full serving stack on loopback unless an
// external address was given for the transport in use.
func resolveTarget(urlFlag, binFlag, transport string) (*target, error) {
	external := (transport == "http" && urlFlag != "") || (transport == "binary" && binFlag != "")
	if external {
		return &target{httpURL: urlFlag, binAddr: binFlag, close: func() int { return 0 }}, nil
	}
	stack, err := selfHost()
	if err != nil {
		return nil, err
	}
	log.Printf("ghload: self-hosted stack on %s (http) and %s (binary)", stack.httpURL, stack.binAddr)
	return stack, nil
}

// selfHost builds server + gateway + HTTP and binary listeners on
// ephemeral loopback ports.
func selfHost() (*target, error) {
	s := server.New()
	g := gateway.New(s, gateway.Config{})
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	binLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		httpLn.Close()
		return nil, err
	}
	hs := &http.Server{Handler: g.Handler()}
	go func() { _ = hs.Serve(httpLn) }()
	go func() { _ = g.ServeBinary(binLn) }()
	closed := false
	leaked := 0
	return &target{
		httpURL: "http://" + httpLn.Addr().String(),
		binAddr: binLn.Addr().String(),
		close: func() int {
			if !closed {
				closed = true
				hs.Close()
				g.Close()
				leaked = s.Shutdown()
			}
			return leaked
		},
	}, nil
}
