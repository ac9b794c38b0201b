package gateway

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"groundhog/internal/faults"
	"groundhog/internal/isolation"
	"groundhog/internal/server"
)

func newGateway(t *testing.T, cfg Config) (*server.Server, *Gateway) {
	t.Helper()
	s := server.New()
	g := New(s, cfg)
	t.Cleanup(func() {
		_ = g.Close()
		s.Shutdown()
	})
	return s, g
}

func serveHTTP(t *testing.T, g *Gateway) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func fnURL(base, fn string) string {
	return base + fnPrefix + url.PathEscape(fn)
}

// postFn posts body to the data plane and returns (status, echoed body,
// headers).
func postFn(t *testing.T, u, body string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Post(u, "application/octet-stream", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b), resp.Header
}

// listDeployments fetches the control plane's /deployments listing.
func listDeployments(t *testing.T, base string) []server.DeploymentInfo {
	t.Helper()
	resp, err := http.Get(base + "/deployments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var deps []server.DeploymentInfo
	if err := json.NewDecoder(resp.Body).Decode(&deps); err != nil {
		t.Fatal(err)
	}
	return deps
}

// waitUntil polls cond for up to 2s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

var statsRe = regexp.MustCompile(`^e2e_us=\d+;invoker_us=\d+;restored=[01]$`)

// TestGatewayEchoAndStats: the hot path echoes the request body verbatim
// and reports per-request metadata in X-Gh-Stats — no JSON anywhere.
func TestGatewayEchoAndStats(t *testing.T) {
	_, g := newGateway(t, Config{})
	ts := serveHTTP(t, g)
	u := fnURL(ts.URL, "get-time (p)")

	body := "payload-\x00\x01-binary-ok"
	status, echo, hdr := postFn(t, u, body)
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200", status)
	}
	if echo != body {
		t.Fatalf("echo = %q, want %q", echo, body)
	}
	if st := hdr.Get("X-Gh-Stats"); !statsRe.MatchString(st) {
		t.Fatalf("X-Gh-Stats = %q, want %s", st, statsRe)
	}
	if snap := g.Snapshot(); snap.Served != 1 {
		t.Fatalf("snapshot after one request = %+v", snap)
	}
}

// TestGatewayModeHeaderAndControlPlane: X-Gh-Mode selects the isolation
// mode (each fn × mode is its own deployment, visible on the control plane,
// which stays mounted under the same listener), and unknown modes answer
// 400 before touching the registry.
func TestGatewayModeHeaderAndControlPlane(t *testing.T) {
	_, g := newGateway(t, Config{})
	ts := serveHTTP(t, g)
	u := fnURL(ts.URL, "get-time (p)")

	for _, mode := range []string{"fork", "gh"} {
		req, _ := http.NewRequest(http.MethodPost, u, strings.NewReader("x"))
		req.Header.Set("X-Gh-Mode", mode)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mode %s: status %d", mode, resp.StatusCode)
		}
	}
	req, _ := http.NewRequest(http.MethodPost, u, nil)
	req.Header.Set("X-Gh-Mode", "chroot")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown mode: status %d, want 400", resp.StatusCode)
	}

	// Control plane rides the same handler: the deployments listing shows
	// both modes of the function the data plane registered.
	cp, err := http.Get(ts.URL + "/deployments")
	if err != nil {
		t.Fatal(err)
	}
	listing, _ := io.ReadAll(cp.Body)
	cp.Body.Close()
	if cp.StatusCode != http.StatusOK ||
		!strings.Contains(string(listing), `"fork"`) || !strings.Contains(string(listing), `"gh"`) {
		t.Fatalf("/deployments through gateway = %d %s", cp.StatusCode, listing)
	}
	// The control plane lists; it does not invoke.
	resp, err = http.Post(ts.URL+"/invoke?fn="+url.QueryEscape("get-time (p)")+"&mode=gh", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /invoke: status %d, want 404", resp.StatusCode)
	}
}

// TestGatewayDefaultModeIsGH: a request without X-Gh-Mode deploys and
// serves the gh mode.
func TestGatewayDefaultModeIsGH(t *testing.T) {
	_, g := newGateway(t, Config{})
	ts := serveHTTP(t, g)
	if status, _, _ := postFn(t, fnURL(ts.URL, "version (p)"), "x"); status != http.StatusOK {
		t.Fatalf("POST without X-Gh-Mode: status %d", status)
	}
	if deps := listDeployments(t, ts.URL); len(deps) != 1 || deps[0].Mode != "gh" {
		t.Fatalf("deployments after a default-mode request = %+v, want one gh entry", deps)
	}
}

// TestGatewayRejectsBadRequests: the edges of the routing surface.
func TestGatewayRejectsBadRequests(t *testing.T) {
	_, g := newGateway(t, Config{})
	g.maxBody = 1024
	ts := serveHTTP(t, g)

	if resp, err := http.Get(fnURL(ts.URL, "get-time (p)")); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET: %d, want 405", resp.StatusCode)
	}
	if status, _, _ := postFn(t, ts.URL+fnPrefix, ""); status != http.StatusNotFound {
		t.Fatalf("empty fn: %d, want 404", status)
	}
	if status, _, _ := postFn(t, fnURL(ts.URL, "no-such-fn"), ""); status != http.StatusNotFound {
		t.Fatalf("unknown fn: %d, want 404", status)
	}
	// A function × mode that cannot be built is no route either: fork on a
	// multi-threaded runtime, FAASM on Node.
	for _, mode := range []string{"fork", "faasm"} {
		req, _ := http.NewRequest(http.MethodPost, fnURL(ts.URL, "get-time (n)"), nil)
		req.Header.Set("X-Gh-Mode", mode)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s on Node: %d, want 404", mode, resp.StatusCode)
		}
	}
	big := strings.Repeat("x", 4096)
	if status, _, _ := postFn(t, fnURL(ts.URL, "get-time (p)"), big); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d, want 413", status)
	}
	// The deployment survives the oversized request (the slot was released
	// on the error path).
	if status, _, _ := postFn(t, fnURL(ts.URL, "get-time (p)"), "ok"); status != http.StatusOK {
		t.Fatalf("after oversized body: %d, want 200", status)
	}
}

// TestGatewayConcurrentServingWithShutdown is the serving-path race test:
// many client goroutines across three deployments while the server is
// concurrently shut down, more than once. Invariants: no panic (the -race CI
// step runs this), every request gets exactly one response, every 200
// echoes its own request body, the only statuses are 200, 429 and 404
// (gone, on a route cached before a shutdown), no shutdown leaks a frame,
// and every function serves again afterwards.
func TestGatewayConcurrentServingWithShutdown(t *testing.T) {
	s, g := newGateway(t, Config{QueueDepth: 2})
	ts := serveHTTP(t, g)
	fns := []string{"get-time (p)", "version (p)", "json (p)"}
	for _, fn := range fns {
		if status, _, _ := postFn(t, fnURL(ts.URL, fn), "warm"); status != http.StatusOK {
			t.Fatalf("warmup %s: %d", fn, status)
		}
	}

	const (
		workers = 12
		perW    = 40
	)
	const shutdowns = 5
	var wg sync.WaitGroup
	errs := make(chan string, workers*perW+shutdowns)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				fn := fns[(w+i)%len(fns)]
				body := fmt.Sprintf("w%d-r%d", w, i)
				resp, err := http.Post(fnURL(ts.URL, fn), "application/octet-stream", strings.NewReader(body))
				if err != nil {
					errs <- "transport: " + err.Error()
					continue
				}
				echo, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					if string(echo) != body {
						errs <- fmt.Sprintf("%s: echo %q != body %q", fn, echo, body)
					}
				case http.StatusTooManyRequests, http.StatusNotFound:
				default:
					errs <- fmt.Sprintf("%s: status %d", fn, resp.StatusCode)
				}
			}
		}(w)
	}
	// Concurrent shutdowns while traffic flows: each tears down whatever the
	// gateway re-registered since the last one.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < shutdowns; i++ {
			if leaked := s.Shutdown(); leaked != 0 {
				errs <- fmt.Sprintf("shutdown %d leaked %d frames", i, leaked)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	// Traffic still flows after the last shutdown.
	for _, fn := range fns {
		if status, _, _ := postFn(t, fnURL(ts.URL, fn), "after"); status != http.StatusOK {
			t.Fatalf("post-race %s: %d", fn, status)
		}
	}
	if snap := g.Snapshot(); snap.Served < uint64(workers*perW)/2 {
		t.Fatalf("served only %d of %d requests", snap.Served, workers*perW)
	}
}

// fillSlots takes every free admission slot of rt, as requests in flight
// would, and returns the func that gives them back.
func fillSlots(rt *route) (drain func()) {
	n := cap(rt.slots) - len(rt.slots)
	for i := 0; i < n; i++ {
		rt.slots <- struct{}{}
	}
	return func() {
		for i := 0; i < n; i++ {
			<-rt.slots
		}
	}
}

// TestGatewayBackpressure429AndDrain: filling a deployment's admission
// queue sheds further load with 429 + a sane Retry-After; once the queue
// drains, the same deployment answers 200 again.
func TestGatewayBackpressure429AndDrain(t *testing.T) {
	_, g := newGateway(t, Config{QueueDepth: 2})
	ts := serveHTTP(t, g)
	fn := "get-time (p)"
	u := fnURL(ts.URL, fn)
	if status, _, _ := postFn(t, u, "warm"); status != http.StatusOK {
		t.Fatal("warmup failed")
	}

	rt, err := g.route(fn, ghModeIdx)
	if err != nil {
		t.Fatal(err)
	}
	drain := fillSlots(rt)

	status, body, hdr := postFn(t, u, "shed")
	if status != http.StatusTooManyRequests {
		t.Fatalf("full queue: status %d, want 429", status)
	}
	if !strings.Contains(body, "queue full") {
		t.Fatalf("429 body = %q", body)
	}
	ra, err := strconv.Atoi(hdr.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want integer >= 1", hdr.Get("Retry-After"))
	}
	if g.Snapshot().Rejected == 0 {
		t.Fatal("rejected counter not bumped")
	}

	drain()
	if status, _, _ := postFn(t, u, "resumed"); status != http.StatusOK {
		t.Fatalf("after drain: status %d, want 200", status)
	}
}

// TestGatewayQueueIsolation: a saturated deployment must not wedge its
// neighbors — admission queues are per-deployment.
func TestGatewayQueueIsolation(t *testing.T) {
	_, g := newGateway(t, Config{QueueDepth: 1})
	ts := serveHTTP(t, g)
	hot, cold := "get-time (p)", "version (p)"
	for _, fn := range []string{hot, cold} {
		if status, _, _ := postFn(t, fnURL(ts.URL, fn), "warm"); status != http.StatusOK {
			t.Fatalf("warmup %s failed", fn)
		}
	}

	rt, err := g.route(hot, ghModeIdx)
	if err != nil {
		t.Fatal(err)
	}
	drain := fillSlots(rt)

	if status, _, _ := postFn(t, fnURL(ts.URL, hot), "shed"); status != http.StatusTooManyRequests {
		t.Fatalf("hot fn: status %d, want 429", status)
	}
	for i := 0; i < 3; i++ {
		if status, _, _ := postFn(t, fnURL(ts.URL, cold), "fine"); status != http.StatusOK {
			t.Fatalf("cold fn while hot saturated: status %d, want 200", status)
		}
	}
	drain()
	if status, _, _ := postFn(t, fnURL(ts.URL, hot), "resumed"); status != http.StatusOK {
		t.Fatalf("hot fn after drain: status %d, want 200", status)
	}
}

// TestGatewayFaultInjection: the fault invariants hold over real HTTP. A
// deterministic fault plan (mid-request crash on the 2nd request, restore
// fault a few requests later) is armed behind the gateway. The requests go
// one after another down one connection, and every accepted request gets
// exactly one response — 200 with an intact echo or 503 + Retry-After for
// transient failures — and nothing follows the last. The restore fault
// fires after its request's reply, so that reply stands and only the
// container is lost. Only a fresh container's first reply says restored=0.
// After shutdown no deployment leaks a single frame.
func TestGatewayFaultInjection(t *testing.T) {
	s, g := newGateway(t, Config{})
	ts := serveHTTP(t, g)
	fn := "version (p)"
	u := fnURL(ts.URL, fn)

	h, err := s.DataPlane(fn, isolation.ModeGH)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ArmFaults(faults.Plan{
		Seed: 1,
		Schedule: map[faults.Site][]uint64{
			faults.SiteRequestCrash: {2},
			faults.SiteRestore:      {5},
		},
	}); err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	const n = 12
	var ok, transient, fresh int
	for i := 0; i < n; i++ {
		body := fmt.Sprintf("req-%d", i)
		req, err := http.NewRequest(http.MethodPost, u, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if err := req.Write(conn); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(br, req)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		echo, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		switch resp.StatusCode {
		case http.StatusOK:
			ok++
			if string(echo) != body {
				t.Fatalf("request %d: echo %q != body %q", i, echo, body)
			}
			if strings.HasSuffix(resp.Header.Get("X-Gh-Stats"), ";restored=0") {
				fresh++
			}
		case http.StatusServiceUnavailable:
			transient++
			if resp.Header.Get("Retry-After") == "" {
				t.Fatalf("request %d: 503 without Retry-After", i)
			}
		default:
			t.Fatalf("request %d: status %d, want 200 or 503", i, resp.StatusCode)
		}
	}
	_ = conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if extra, err := br.ReadByte(); err == nil {
		t.Fatalf("a byte (%q) follows the last response: some request was answered twice", extra)
	}
	if ok+transient != n {
		t.Fatalf("responses %d+%d != %d requests", ok, transient, n)
	}
	if transient == 0 {
		t.Fatal("scheduled crash produced no 503")
	}
	if ok < n-4 {
		t.Fatalf("only %d/%d requests served around the faults", ok, n)
	}
	snap := g.Snapshot()
	if snap.Served != uint64(ok) {
		t.Fatalf("snapshot %+v, want served=%d", snap, ok)
	}
	d := listDeployments(t, ts.URL)[0]
	if d.Crashes != 1 || d.RestoreFaults != 1 {
		t.Fatalf("crashes %d, restore faults %d; want 1 each", d.Crashes, d.RestoreFaults)
	}
	if d.Invoked != ok || d.Restored != ok-d.RestoreFaults {
		t.Fatalf("invoked %d, restored %d; want %d served, each rolled back but the one whose restore failed", d.Invoked, d.Restored, ok)
	}
	if want := 1 + d.Crashes + d.RestoreFaults; fresh != want {
		t.Fatalf("%d replies say restored=0, want %d (the first on each fresh container)", fresh, want)
	}

	_ = g.Close()
	if leaked := s.Shutdown(); leaked != 0 {
		t.Fatalf("shutdown leaked %d frames", leaked)
	}
}

// TestGatewayRouteReregistersAfterShutdown: after Shutdown, the cached route
// fails once with 404 (gone) at most, and the very next request deploys a
// fresh platform.
func TestGatewayRouteReregistersAfterShutdown(t *testing.T) {
	s, g := newGateway(t, Config{})
	ts := serveHTTP(t, g)
	fn := "get-time (p)"
	u := fnURL(ts.URL, fn)
	for i := 0; i < 3; i++ {
		if status, _, _ := postFn(t, u, "x"); status != http.StatusOK {
			t.Fatal("warmup failed")
		}
	}
	if leaked := s.Shutdown(); leaked != 0 {
		t.Fatalf("shutdown leaked %d frames", leaked)
	}
	// The stale cached route answers gone exactly once, then the gateway
	// re-registers; sequential requests therefore see at most one 404.
	gones := 0
	for i := 0; i < 3; i++ {
		status, _, _ := postFn(t, u, "y")
		switch status {
		case http.StatusNotFound:
			gones++
		case http.StatusOK:
		default:
			t.Fatalf("status %d after shutdown", status)
		}
	}
	if gones > 1 {
		t.Fatalf("%d gone responses after a single shutdown, want <= 1", gones)
	}
	if status, _, _ := postFn(t, u, "z"); status != http.StatusOK {
		t.Fatal("route did not re-register")
	}
}
