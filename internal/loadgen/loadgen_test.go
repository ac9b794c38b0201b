package loadgen

import (
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"groundhog/internal/gateway"
	"groundhog/internal/server"
)

// target spins up a full serving stack: server, gateway, HTTP listener,
// binary listener.
func target(t *testing.T) (httpURL, binAddr string) {
	t.Helper()
	s := server.New()
	g := gateway.New(s, gateway.Config{})
	ts := httptest.NewServer(g.Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = g.ServeBinary(ln) }()
	t.Cleanup(func() {
		ts.Close()
		_ = g.Close()
		if leaked := s.Shutdown(); leaked != 0 {
			t.Errorf("shutdown leaked %d frames", leaked)
		}
	})
	return ts.URL, ln.Addr().String()
}

func checkResult(t *testing.T, res Result, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if res.OK == 0 || res.PerSec <= 0 {
		t.Fatalf("no throughput: %+v", res)
	}
	if res.Errors != 0 || res.Lost != 0 {
		t.Fatalf("errors=%d lost=%d, want 0/0: %+v", res.Errors, res.Lost, res)
	}
	if res.P50Ms <= 0 || res.P99Ms < res.P50Ms {
		t.Fatalf("latency summary broken: %+v", res)
	}
}

// TestClosedLoopHTTP: the bread-and-butter benchmark discipline — fixed
// concurrency, every response verified, zero lost requests.
func TestClosedLoopHTTP(t *testing.T) {
	url, _ := target(t)
	var report strings.Builder
	res, err := Run(Config{
		Dial:     HTTPDial(url, "get-time (p)", ""),
		Closed:   true,
		Workers:  4,
		Duration: 400 * time.Millisecond,
		Body:     []byte("closed-loop payload"),
		Report:   &report,
		Interval: 100 * time.Millisecond,
	})
	checkResult(t, res, err)
	if res.Requests != res.OK+res.Rejected {
		t.Fatalf("accounting: %+v", res)
	}
	if !strings.Contains(report.String(), "[loadgen]") {
		t.Fatal("live reporter wrote nothing")
	}
}

// TestClosedLoopBinary: same discipline over the binary protocol.
func TestClosedLoopBinary(t *testing.T) {
	_, addr := target(t)
	res, err := Run(Config{
		Dial:     BinaryDial(addr, "get-time (p)", "gh"),
		Closed:   true,
		Workers:  4,
		Duration: 400 * time.Millisecond,
		Body:     []byte("binary payload"),
	})
	checkResult(t, res, err)
}

// TestOpenLoopHTTP: arrivals paced by the fleet's own arrival process; a
// modest rate keeps the queue empty, so everything is served.
func TestOpenLoopHTTP(t *testing.T) {
	url, _ := target(t)
	res, err := Run(Config{
		Dial:       HTTPDial(url, "version (p)", ""),
		Rate:       300,
		Burstiness: 1,
		Duration:   400 * time.Millisecond,
		Body:       []byte("open-loop payload"),
		Seed:       42,
	})
	checkResult(t, res, err)
	// ~300/s over 0.4s: the pacer should have fired a meaningful fraction.
	if res.Requests < 40 {
		t.Fatalf("open loop fired only %d requests", res.Requests)
	}
}

// TestShedAndTransientAccounting: 429s and 503s from the server are
// outcomes, not harness errors — counted in their own classes with the
// fired/accounted invariant intact. (Whether a real gateway actually sheds
// under pressure is pinned deterministically by internal/gateway's
// backpressure tests; natural overflow timing is machine-dependent, so
// this test stubs the statuses.)
func TestShedAndTransientAccounting(t *testing.T) {
	var n atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		switch n.Add(1) % 3 {
		case 0:
			w.Header().Set("Retry-After", "1")
			http.Error(w, "deployment queue full", http.StatusTooManyRequests)
		case 1:
			w.Header().Set("Retry-After", "1")
			http.Error(w, "injected crash", http.StatusServiceUnavailable)
		default:
			io.WriteString(w, "stub payload")
		}
	}))
	t.Cleanup(stub.Close)
	res, err := Run(Config{
		Dial:     HTTPDial(stub.URL, "stub", ""),
		Closed:   true,
		Workers:  2,
		Duration: 200 * time.Millisecond,
		Body:     []byte("stub payload"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK == 0 || res.Rejected == 0 || res.Transient == 0 {
		t.Fatalf("classes not all exercised: %+v", res)
	}
	if res.Errors != 0 || res.Lost != 0 {
		t.Fatalf("errors=%d lost=%d, want 0/0", res.Errors, res.Lost)
	}
	if res.Requests != res.OK+res.Rejected+res.Transient {
		t.Fatalf("accounting broken: %+v", res)
	}
}

// TestEchoCorruptionIsAnError: a 200 whose body is not the request payload
// must surface as a harness error, failing the run.
func TestEchoCorruptionIsAnError(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		io.WriteString(w, "corrupted")
	}))
	t.Cleanup(stub.Close)
	res, err := Run(Config{
		Dial:     HTTPDial(stub.URL, "stub", ""),
		Closed:   true,
		Workers:  1,
		Duration: 50 * time.Millisecond,
		Body:     []byte("original"),
	})
	if err == nil || res.Errors == 0 {
		t.Fatalf("corrupt echo not surfaced: res=%+v err=%v", res, err)
	}
}
