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
// Exit status is 2 for a bad command line, refused before any stack is
// built, and 1 when the run saw any transport error, any lost (unaccounted)
// request, leaked snapshot frames at shutdown, or zero successful responses
// — CI's smoke steps (one per transport) lean on that contract. A self-hosted
// stack is torn down, and its frames counted, on every exit after it is up.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is ghload on a command line. It returns the exit status: 2 for a bad
// command line, refused before any stack is built; 1 for a failed run, after
// the stack is torn down; 0 otherwise.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ghload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		urlFlag   = fs.String("url", "", "HTTP base URL of an external gateway (empty self-hosts in-process)")
		binFlag   = fs.String("binary-addr", "", "binary-protocol address of an external gateway (with -transport binary)")
		transport = fs.String("transport", "http", "transport: http or binary")
		loop      = fs.String("loop", "closed", "loop discipline: closed or open")
		workers   = fs.Int("workers", 8, "closed-loop concurrency")
		rate      = fs.Float64("rate", 500, "open-loop mean arrival rate per second")
		burst     = fs.Float64("burstiness", 1, "open-loop interarrival CoV (1 = Poisson)")
		duration  = fs.Duration("duration", 5*time.Second, "run length")
		fn        = fs.String("fn", "get-time (p)", "catalog function to invoke")
		mode      = fs.String("mode", "", "isolation mode (empty = server default, gh)")
		bodyBytes = fs.Int("body-bytes", 512, "request payload size (echoed and verified)")
		seed      = fs.Uint64("seed", 1, "open-loop arrival process seed")
		quiet     = fs.Bool("quiet", false, "suppress the live progress line")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	var bad string
	switch {
	case *transport != "http" && *transport != "binary":
		bad = fmt.Sprintf("unknown -transport %q (want http or binary)", *transport)
	case *loop != "closed" && *loop != "open":
		bad = fmt.Sprintf("unknown -loop %q (want closed or open)", *loop)
	case *loop == "closed" && *workers < 1:
		bad = fmt.Sprintf("-workers %d is below 1", *workers)
	case *loop == "open" && !(*rate > 0):
		bad = fmt.Sprintf("-rate %v is not positive", *rate)
	case *duration <= 0:
		bad = fmt.Sprintf("-duration %v is not positive", *duration)
	case *bodyBytes < 0:
		bad = fmt.Sprintf("-body-bytes %d is negative", *bodyBytes)
	}
	if bad != "" {
		fmt.Fprintf(stderr, "ghload: %s\n", bad)
		fs.Usage()
		return 2
	}

	logger := log.New(stderr, "", log.LstdFlags)
	target, err := resolveTarget(*urlFlag, *binFlag, *transport, logger)
	if err != nil {
		logger.Printf("ghload: %v", err)
		return 1
	}

	cfg := loadgen.Config{
		Duration:   *duration,
		Body:       bodyOf(*bodyBytes),
		Seed:       *seed,
		Burstiness: *burst,
		Closed:     *loop == "closed",
		Workers:    *workers,
		Rate:       *rate,
	}
	if *transport == "http" {
		cfg.Dial = loadgen.HTTPDial(target.httpURL, *fn, isolation.Mode(*mode))
	} else {
		cfg.Dial = loadgen.BinaryDial(target.binAddr, *fn, isolation.Mode(*mode))
	}
	if !*quiet {
		cfg.Report = stderr
	}

	res, err := loadgen.Run(cfg)
	printResult(stdout, res)
	switch {
	case err != nil:
	case res.OK == 0:
		err = errors.New("zero successful requests")
	case res.Lost != 0:
		err = fmt.Errorf("%d requests fired but never accounted", res.Lost)
	}
	if leaked := target.close(); leaked != 0 {
		err = errors.Join(err, fmt.Errorf("shutdown leaked %d snapshot frames", leaked))
	}
	if err != nil {
		logger.Printf("ghload: %v", err)
		return 1
	}
	return 0
}

func bodyOf(n int) []byte {
	body := make([]byte, n)
	for i := range body {
		body[i] = byte('a' + i%26)
	}
	return body
}

func printResult(w io.Writer, res loadgen.Result) {
	fmt.Fprintf(w, "requests %d  ok %d  rejected %d  transient %d  errors %d  lost %d\n",
		res.Requests, res.OK, res.Rejected, res.Transient, res.Errors, res.Lost)
	fmt.Fprintf(w, "wall %.2fs  throughput %.0f ok/s  latency p50 %.2fms p95 %.2fms p99 %.2fms\n",
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
func resolveTarget(urlFlag, binFlag, transport string, logger *log.Logger) (*target, error) {
	external := (transport == "http" && urlFlag != "") || (transport == "binary" && binFlag != "")
	if external {
		return &target{httpURL: urlFlag, binAddr: binFlag, close: func() int { return 0 }}, nil
	}
	stack, err := selfHost()
	if err != nil {
		return nil, err
	}
	logger.Printf("ghload: self-hosted stack on %s (http) and %s (binary)", stack.httpURL, stack.binAddr)
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
	return &target{
		httpURL: "http://" + httpLn.Addr().String(),
		binAddr: binLn.Addr().String(),
		close: func() int {
			hs.Close()
			g.Close()
			return s.Shutdown()
		},
	}, nil
}
