// Command ghserve runs the simulated FaaS platform behind real listeners —
// a Groundhog "provider in a box" for interactive exploration and load
// testing.
//
// One HTTP listener carries both planes: the gateway's raw data plane
// under /fn/ and the JSON control plane everywhere else. A second listener
// speaks the gateway's length-prefixed binary protocol (see
// internal/gateway/binary.go for the framing).
//
//	go run ./cmd/ghserve -addr :8080 &
//	curl -s localhost:8080/functions | head
//	curl -s -X POST 'localhost:8080/invoke?fn=get-time%20(p)&mode=gh'
//	curl -s -X POST --data-binary 'payload' 'localhost:8080/fn/get-time%20(p)'
//	curl -s localhost:8080/deployments
//	go run ./cmd/ghload -url http://localhost:8080 -duration 5s
package main

import (
	"flag"
	"log"
	"net"
	"net/http"

	"groundhog/internal/gateway"
	"groundhog/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "HTTP listen address (control plane + /fn/ data plane)")
		binaryAddr = flag.String("binary-addr", "127.0.0.1:8081", "binary-protocol listen address (empty disables)")
		trust      = flag.Bool("trust-same-caller", false, "enable the §4.4 trusted-caller optimization")
		queueDepth = flag.Int("queue-depth", gateway.DefaultQueueDepth, "per-deployment admission queue bound")
	)
	flag.Parse()

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
	log.Printf("ghserve: simulated FaaS platform listening on %s", *addr)
	log.Printf("ghserve: try  curl -s -X POST '%s/invoke?fn=get-time%%20(p)&mode=gh'", *addr)
	log.Printf("ghserve: or   curl -s -X POST --data-binary hi '%s/fn/get-time%%20(p)'", *addr)
	if err := http.ListenAndServe(*addr, g.Handler()); err != nil {
		log.Fatal(err)
	}
}
