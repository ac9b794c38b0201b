// Command ghserve runs the simulated FaaS platform behind real listeners —
// a Groundhog "provider in a box" for interactive exploration and load
// testing.
//
// One HTTP listener carries both planes: the gateway's raw data plane
// under /fn/, the only HTTP route that invokes, and the read-only JSON
// control plane everywhere else. A second listener speaks the gateway's
// length-prefixed binary protocol (see internal/gateway/binary.go for the
// framing).
//
//	go run ./cmd/ghserve -addr :8080 &
//	curl -s localhost:8080/functions | head
//	curl -s -i -X POST --data-binary 'payload' 'localhost:8080/fn/get-time%20(p)'
//	curl -s -X POST -H 'X-Gh-Mode: base' --data-binary 'payload' 'localhost:8080/fn/get-time%20(p)'
//	curl -s localhost:8080/deployments
//	go run ./cmd/ghload -url http://localhost:8080 -duration 5s
//
// SIGINT or SIGTERM shuts it down in order: the HTTP listener stops accepting
// and in-flight requests get drainTimeout to finish, the binary listener and
// its connections close, every deployment is torn down, and the exit code is
// 1 if a torn-down deployment's kernel still counts frames in use, 0
// otherwise.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"groundhog/internal/gateway"
	"groundhog/internal/server"
)

// The HTTP listener's patience: a peer gets readHeaderTimeout to send its
// request headers and idleTimeout between keep-alive requests, so a silent or
// trickling connection cannot hold a goroutine forever; shutdown waits
// drainTimeout for in-flight requests. The binary listener's counterpart of
// both read timeouts is gateway.BinaryIdleTimeout (a complete frame every 60 s),
// which the gateway applies to every connection it serves.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 60 * time.Second
	drainTimeout      = 3 * time.Second
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "HTTP listen address (control plane + /fn/ data plane)")
		binaryAddr = flag.String("binary-addr", "127.0.0.1:8081", "binary-protocol listen address (empty disables)")
		trust      = flag.Bool("trust-same-caller", false, "enable the §4.4 trusted-caller optimization")
		queueDepth = flag.Int("queue-depth", gateway.DefaultQueueDepth, "per-deployment admission queue bound")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	s := server.New()
	s.SetTrustSameCaller(*trust)
	g := gateway.New(s, gateway.Config{QueueDepth: *queueDepth})
	if *binaryAddr != "" {
		ln, err := net.Listen("tcp", *binaryAddr)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("ghserve: binary data plane listening on %s", ln.Addr())
		go func() {
			if err := g.ServeBinary(ln); err != nil {
				log.Fatalf("ghserve: binary listener: %v", err)
			}
		}()
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           g.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	log.Printf("ghserve: simulated FaaS platform listening on %s", *addr)
	log.Printf("ghserve: try  curl -s -i -X POST --data-binary hi '%s/fn/get-time%%20(p)'", *addr)
	go func() {
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()

	<-ctx.Done()
	stop() // a second signal kills the process the default way
	log.Printf("ghserve: shutting down")
	drain, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drain); err != nil {
		log.Printf("ghserve: http drain: %v", err)
	}
	_ = g.Close()
	if leaked := s.Shutdown(); leaked != 0 {
		log.Printf("ghserve: %d frames leaked", leaked)
		os.Exit(1)
	}
}
