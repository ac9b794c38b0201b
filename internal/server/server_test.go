package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"groundhog/internal/faas"
	"groundhog/internal/faults"
	"groundhog/internal/isolation"
)

func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, url string, out interface{}) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

// invoke serves one request from caller on fn × mode through the data
// plane, registering and deploying the deployment on first use.
func invoke(t *testing.T, s *Server, fn string, mode isolation.Mode, caller string) faas.RequestStats {
	t.Helper()
	h, err := s.DataPlane(fn, mode)
	if err != nil {
		t.Fatal(err)
	}
	st, err := h.Invoke(caller)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// deployments fetches the /deployments listing.
func deployments(t *testing.T, ts *httptest.Server) []DeploymentInfo {
	t.Helper()
	var deps []DeploymentInfo
	if resp := get(t, ts.URL+"/deployments", &deps); resp.StatusCode != http.StatusOK {
		t.Fatalf("deployments: status %d", resp.StatusCode)
	}
	return deps
}

func TestHealthz(t *testing.T) {
	_, ts := testServer(t)
	var body map[string]string
	resp := get(t, ts.URL+"/healthz", &body)
	if resp.StatusCode != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz: %d %v", resp.StatusCode, body)
	}
}

func TestFunctionsListsCatalog(t *testing.T) {
	_, ts := testServer(t)
	var fns []FunctionInfo
	get(t, ts.URL+"/functions", &fns)
	if len(fns) != 58 {
		t.Fatalf("functions = %d, want 58", len(fns))
	}
	seen := false
	for _, f := range fns {
		if f.Name == "img-resize (n)" && f.Language == "node" {
			seen = true
		}
	}
	if !seen {
		t.Fatal("img-resize (n) missing from listing")
	}
}

func TestModes(t *testing.T) {
	_, ts := testServer(t)
	var modes []string
	get(t, ts.URL+"/modes", &modes)
	if len(modes) != 5 {
		t.Fatalf("modes = %v", modes)
	}
}

// settle runs h's pending cleanup under the deployment lock, as the next
// request would, and returns its half of the stats.
func settle(t *testing.T, h *Handle) faas.RequestStats {
	t.Helper()
	h.dep.mu.Lock()
	defer h.dep.mu.Unlock()
	st, err := h.dep.settle()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestInvokeLifecycle: the deploy pays the one cold start /deployments
// reports; a GH request's reply comes back before its restore, which the
// next holder of the deployment lock (or Settle) runs; the next reply says
// its container was rolled back; and a warm request adds no cold start and
// has plausible latencies.
func TestInvokeLifecycle(t *testing.T) {
	s, ts := testServer(t)
	h, err := s.DataPlane("get-time (p)", isolation.ModeGH)
	if err != nil {
		t.Fatal(err)
	}
	if deps := deployments(t, ts); len(deps) != 1 || deps[0].ColdStartMS <= 0 {
		t.Fatalf("deployed platform should report its cold start: %+v", deps)
	}

	first, err := h.Invoke("")
	if err != nil {
		t.Fatal(err)
	}
	if first.RolledBack || first.Restored || first.Cleanup != 0 {
		t.Fatalf("a fresh container's first reply reports a rollback: %+v", first)
	}
	if !h.dep.pending.Load() {
		t.Fatal("the reply went out with no cleanup pending")
	}
	if cl := settle(t, h); !cl.Restored || cl.Cleanup <= 0 {
		t.Fatalf("GH invocation did not restore: %+v", cl)
	}

	second, err := h.Invoke("")
	if err != nil {
		t.Fatal(err)
	}
	if !second.RolledBack {
		t.Fatalf("the reply after a GH restore does not say so: %+v", second)
	}
	if second.Invoker <= 0 || second.E2E <= second.Invoker {
		t.Fatalf("implausible latencies: %+v", second)
	}
	h.Settle()
	if h.dep.pending.Load() {
		t.Fatal("Settle on an idle deployment left the cleanup pending")
	}
	d := deployments(t, ts)[0]
	if d.FullColdStarts != 1 || d.CloneColdStarts != 0 {
		t.Fatalf("warm invocations paid a cold start: %d full, %d clone", d.FullColdStarts, d.CloneColdStarts)
	}
	if d.Invoked != 2 || d.Restored != 2 {
		t.Fatalf("invoked %d, restored %d; want 2 and 2", d.Invoked, d.Restored)
	}
}

func TestInvokeBaseNeverRestores(t *testing.T) {
	s, ts := testServer(t)
	for i := 0; i < 2; i++ {
		if st := invoke(t, s, "get-time (p)", isolation.ModeBase, ""); st.RolledBack || st.Restored || st.Cleanup != 0 {
			t.Fatalf("BASE request %d restored: %+v", i, st)
		}
	}
	if d := deployments(t, ts)[0]; d.Restored != 0 {
		t.Fatalf("BASE deployment counts %d rollbacks", d.Restored)
	}
}

// TestInvokeErrors: an unknown function and a function × mode that cannot
// be built fail at registration, and a failed deploy leaves no deployment
// behind.
func TestInvokeErrors(t *testing.T) {
	s, ts := testServer(t)
	for _, c := range []struct {
		fn   string
		mode isolation.Mode
	}{
		{"nope", isolation.ModeGH},
		{"get-time (n)", isolation.ModeFork},
		{"get-time (n)", isolation.ModeFaasm},
	} {
		if h, err := s.DataPlane(c.fn, c.mode); err == nil {
			t.Fatalf("%s under %s: got handle %p, want an error", c.fn, c.mode, h)
		}
	}
	if deps := deployments(t, ts); len(deps) != 0 {
		t.Fatalf("failed deploys left deployments behind: %+v", deps)
	}
}

func TestDeploymentsListing(t *testing.T) {
	s, ts := testServer(t)
	invoke(t, s, "version (p)", isolation.ModeGH, "")
	invoke(t, s, "version (p)", isolation.ModeGH, "")
	invoke(t, s, "version (p)", isolation.ModeBase, "")
	deps := deployments(t, ts)
	if len(deps) != 2 {
		t.Fatalf("deployments = %d, want 2", len(deps))
	}
	total := 0
	for _, d := range deps {
		total += d.Invoked
		if d.ColdStartMS <= 0 {
			t.Fatalf("deployment without cold start: %+v", d)
		}
	}
	if total != 3 {
		t.Fatalf("invocations = %d, want 3", total)
	}
}

// TestDeploymentsPerFunctionBreakdown: /deployments surfaces the cold-start
// split, the latency summary, and each built-in policy's decisions — the
// per-function view the fleet policies read.
func TestDeploymentsPerFunctionBreakdown(t *testing.T) {
	s, ts := testServer(t)
	for i := 0; i < 3; i++ {
		invoke(t, s, "get-time (p)", isolation.ModeGH, "")
	}
	deps := deployments(t, ts)
	if len(deps) != 1 {
		t.Fatalf("deployments = %d, want 1", len(deps))
	}
	d := deps[0]
	if d.FullColdStarts != 1 || d.CloneColdStarts != 0 {
		t.Fatalf("cold-start split %d/%d, want 1/0 (the deploy pipeline)",
			d.FullColdStarts, d.CloneColdStarts)
	}
	if d.ColdStartTotalMS <= 0 {
		t.Fatalf("no cold-start bill: %+v", d)
	}
	// The third request's restore was still pending; the listing settles it.
	if d.Restored != 3 {
		t.Fatalf("restored = %d, want 3 (GH restores per request)", d.Restored)
	}
	if d.E2EMeanMS <= 0 || d.E2EP95MS < d.E2EP50MS {
		t.Fatalf("latency summary degenerate: mean=%v p50=%v p95=%v",
			d.E2EMeanMS, d.E2EP50MS, d.E2EP95MS)
	}
	if len(d.Policies) != 3 {
		t.Fatalf("policy advice entries = %d, want 3", len(d.Policies))
	}
	seen := map[string]bool{}
	for _, a := range d.Policies {
		seen[a.Policy] = true
		// ScaleUp may legitimately be 0 here (nothing queued); the floor
		// never is.
		if a.WarmFloor < 1 || a.ScaleUp < 0 {
			t.Fatalf("degenerate advice: %+v", a)
		}
	}
	for _, want := range []string{"fixed-ttl", "slo-aware", "cost-min"} {
		if !seen[want] {
			t.Fatalf("advice missing %q: %+v", want, d.Policies)
		}
	}
}

// TestTrustedCaller: with the §4.4 optimization on, a request from the
// previous caller skips the restore, and a caller switch pays the deferred
// restore before it runs.
func TestTrustedCaller(t *testing.T) {
	s, _ := testServer(t)
	s.SetTrustSameCaller(true)
	invoke(t, s, "md2html (p)", isolation.ModeGH, "alice")
	if a2 := invoke(t, s, "md2html (p)", isolation.ModeGH, "alice"); a2.RolledBack || a2.PreRestore != 0 {
		t.Fatalf("same-caller invocation restored: %+v", a2)
	}
	if b := invoke(t, s, "md2html (p)", isolation.ModeGH, "bob"); b.PreRestore <= 0 || !b.RolledBack {
		t.Fatalf("caller switch did not pay deferred restore: %+v", b)
	}
}

// TestInvokeRejectsUnknownMode: a bad mode fails validation up front with
// an error listing the allowed modes, not as a deploy error, and registers
// nothing.
func TestInvokeRejectsUnknownMode(t *testing.T) {
	s, ts := testServer(t)
	_, err := s.DataPlane("version (p)", "bogus")
	if err == nil {
		t.Fatal("unknown mode: got a handle, want an error")
	}
	for _, want := range []string{"bogus", "base", "gh", "fork", "faasm"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
	if deps := deployments(t, ts); len(deps) != 0 {
		t.Fatalf("rejected mode left a deployment behind: %+v", deps)
	}
}

// TestConcurrentInvokes is the regression test for the per-deployment
// locking: invocations of unrelated deployments run concurrently, each
// platform's single-threaded simulation stays serialized, and (under -race)
// no shared state is touched without a lock.
func TestConcurrentInvokes(t *testing.T) {
	s, ts := testServer(t)
	fns := []string{"get-time (p)", "version (p)", "md2html (p)"}
	modes := []isolation.Mode{isolation.ModeGH, isolation.ModeBase}

	var wg sync.WaitGroup
	errs := make(chan error, len(fns)*len(modes)*4)
	for _, fn := range fns {
		for _, mode := range modes {
			for i := 0; i < 4; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					h, err := s.DataPlane(fn, mode)
					if err == nil {
						_, err = h.Invoke("")
					}
					if err != nil {
						errs <- fmt.Errorf("%s under %s: %w", fn, mode, err)
					}
				}()
			}
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	deps := deployments(t, ts)
	if len(deps) != len(fns)*len(modes) {
		t.Fatalf("deployments = %d, want %d", len(deps), len(fns)*len(modes))
	}
	for _, d := range deps {
		if d.Invoked != 4 {
			t.Fatalf("deployment %s|%s invoked %d times, want 4", d.Function, d.Mode, d.Invoked)
		}
	}
}

// TestInjectedCrashIsTransient arms a one-shot request-crash fault on a
// live deployment: the crashed invocation must fail transiently (the
// request is retryable — the platform tore the container down), the next
// invocation must succeed again after the pool rebuilds, and /deployments
// must report the crash in its recovery counters.
func TestInjectedCrashIsTransient(t *testing.T) {
	s, ts := testServer(t)
	invoke(t, s, "version (p)", isolation.ModeGH, "") // deploy + first request
	h, err := s.DataPlane("version (p)", isolation.ModeGH)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ArmFaults(faults.Plan{
		Seed:     1,
		Schedule: map[faults.Site][]uint64{faults.SiteRequestCrash: {1}},
	}); err != nil {
		t.Fatal(err)
	}

	if _, err := h.Invoke(""); !faas.IsTransient(err) {
		t.Fatalf("crashed invoke: err %v, want a transient failure", err)
	}
	if deps := deployments(t, ts); len(deps) != 1 || deps[0].Crashes != 1 {
		t.Fatalf("deployment listing after crash = %+v, want crashes=1", deps)
	}
	if _, err := h.Invoke(""); err != nil {
		t.Fatalf("invoke after the crash: %v, want success (pool rebuilt)", err)
	}
}

// TestZeroContainerDeployment: a platform drained by keep-alive expiry
// (RemoveContainer) must not panic the handlers — /deployments reports a
// zero cold start, and Invoke re-pools the deployment with a fresh cold
// start and serves the request.
func TestZeroContainerDeployment(t *testing.T) {
	s, ts := testServer(t)
	invoke(t, s, "version (p)", isolation.ModeGH, "")

	dep := s.deployments["version (p)|gh"]
	if dep == nil {
		t.Fatal("deployment not registered")
	}
	dep.mu.Lock()
	if _, err := dep.settle(); err != nil {
		t.Fatal(err)
	}
	dep.platform.RemoveContainer(dep.platform.Containers()[0])
	dep.mu.Unlock()

	if deps := deployments(t, ts); len(deps) != 1 || deps[0].ColdStartMS != 0 {
		t.Fatalf("zero-container deployment listing = %+v, want one entry with zero cold start", deps)
	}
	invoke(t, s, "version (p)", isolation.ModeGH, "")
	dep.mu.Lock()
	n := len(dep.platform.Containers())
	dep.mu.Unlock()
	if n != 1 {
		t.Fatalf("containers after invoking a drained platform = %d, want 1 (pool healed)", n)
	}
}

// TestColdStartMeanTakesNoLock: the gateway reads the cold-start mean on
// its shed path, so it must answer while another request holds the
// deployment lock, and equal the mean over every cold start so far.
func TestColdStartMeanTakesNoLock(t *testing.T) {
	s, _ := testServer(t)
	h, err := s.DataPlane("version (p)", isolation.ModeGH)
	if err != nil {
		t.Fatal(err)
	}
	cold := h.dep.platform.ColdStarts()
	want := float64(cold.FullCost+cold.CloneCost) / 1e6 / float64(cold.Full+cold.Clone)

	h.dep.mu.Lock()
	defer h.dep.mu.Unlock()
	got := make(chan float64, 1)
	go func() { got <- h.ColdStartMeanMs() }()
	select {
	case ms := <-got:
		if ms <= 0 || ms != want {
			t.Fatalf("ColdStartMeanMs() = %v, want %v", ms, want)
		}
	case <-time.After(time.Second):
		t.Fatal("ColdStartMeanMs blocked on the deployment lock")
	}
}

// TestPendingCleanupRunsInlineForAWaiter: an Invoke that finds another one
// waiting for the deployment lock restores before it unlocks, since the
// waiter would wait for that restore anyway; with no waiter it leaves the
// cleanup pending.
func TestPendingCleanupRunsInlineForAWaiter(t *testing.T) {
	s, _ := testServer(t)
	h, err := s.DataPlane("get-time (p)", isolation.ModeGH)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Invoke(""); err != nil {
		t.Fatal(err)
	}
	if !h.dep.pending.Load() {
		t.Fatal("no waiter, yet the cleanup ran before the unlock")
	}
	h.dep.waiters.Add(1) // a request queued behind this one
	_, err = h.Invoke("")
	h.dep.waiters.Add(-1)
	if err != nil {
		t.Fatal(err)
	}
	if h.dep.pending.Load() {
		t.Fatal("a request was waiting, yet the cleanup was left pending")
	}
	h.dep.mu.Lock()
	restored := h.dep.restored
	h.dep.mu.Unlock()
	if restored != 2 {
		t.Fatalf("restored = %d, want 2", restored)
	}
}

// TestPendingCleanupSettleNeverWaits: Settle gives way to a holder of the
// deployment lock, which settles first itself; once the lock is free it runs
// the pending cleanup.
func TestPendingCleanupSettleNeverWaits(t *testing.T) {
	s, _ := testServer(t)
	h, err := s.DataPlane("get-time (p)", isolation.ModeGH)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Invoke(""); err != nil {
		t.Fatal(err)
	}
	h.dep.mu.Lock()
	done := make(chan struct{})
	go func() { h.Settle(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Settle waited for the deployment lock")
	}
	h.dep.mu.Unlock()
	if !h.dep.pending.Load() {
		t.Fatal("Settle ran the cleanup without the lock")
	}
	h.Settle()
	if h.dep.pending.Load() {
		t.Fatal("Settle on a free deployment left the cleanup pending")
	}
}

// TestPendingCleanupUnderConcurrentInvokes: requests on one deployment from
// several goroutines, each followed by Settle as the gateway does. Every
// reply but the container's first reports a rollback since the previous
// request, so no request ran before the previous one's restore, and every
// restore ran exactly once. Under -race this holds the hand-offs between
// Invoke, its waiters and Settle.
func TestPendingCleanupUnderConcurrentInvokes(t *testing.T) {
	s, ts := testServer(t)
	h, err := s.DataPlane("get-time (p)", isolation.ModeGH)
	if err != nil {
		t.Fatal(err)
	}
	const workers, each = 4, 25
	var wg sync.WaitGroup
	var mu sync.Mutex
	fresh := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				st, err := h.Invoke("")
				if err != nil {
					t.Error(err)
					return
				}
				h.Settle()
				if !st.RolledBack {
					mu.Lock()
					fresh++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if fresh != 1 {
		t.Fatalf("%d replies report no rollback before them, want 1 (the container's first)", fresh)
	}
	if d := deployments(t, ts)[0]; d.Invoked != workers*each || d.Restored != workers*each {
		t.Fatalf("invoked %d, restored %d; want %d each", d.Invoked, d.Restored, workers*each)
	}
}

// TestPendingCleanupShutdown: Shutdown tears a deployment down with its
// cleanup still pending, without running it, and leaks no frame or lent
// page — alone, and racing requests that settle after their replies.
func TestPendingCleanupShutdown(t *testing.T) {
	s, _ := testServer(t)
	h, err := s.DataPlane("get-time (p)", isolation.ModeGH)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Invoke(""); err != nil {
		t.Fatal(err)
	}
	if !h.dep.pending.Load() {
		t.Fatal("no cleanup pending to shut down with")
	}
	if leaked := s.Shutdown(); leaked != 0 {
		t.Fatalf("Shutdown with a cleanup pending leaked %d frames and lent pages", leaked)
	}
	h.Settle() // the handle is stale: nothing to run

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				h, err := s.DataPlane("get-time (p)", isolation.ModeGH)
				if err == nil {
					_, err = h.Invoke("")
					h.Settle()
				}
				if err != nil && !errors.Is(err, ErrGone) {
					t.Error(err)
					return
				}
			}
		}()
	}
	leaked := 0
	for i := 0; i < 20; i++ {
		leaked += s.Shutdown()
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if leaked += s.Shutdown(); leaked != 0 {
		t.Fatalf("shutdowns racing pending cleanups leaked %d frames and lent pages", leaked)
	}
}

// TestArmFaultsSettlesPendingCleanup: ArmFaults runs a pending cleanup
// under the old plan before it installs the new one, so the new plan's
// first restore is the next request's. That restore, after the reply, fails:
// the reply stands, the container goes, and the next request re-pools.
func TestArmFaultsSettlesPendingCleanup(t *testing.T) {
	s, ts := testServer(t)
	h, err := s.DataPlane("version (p)", isolation.ModeGH)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Invoke(""); err != nil {
		t.Fatal(err)
	}
	if err := h.ArmFaults(faults.Plan{
		Seed:     1,
		Schedule: map[faults.Site][]uint64{faults.SiteRestore: {1}},
	}); err != nil {
		t.Fatal(err)
	}
	if d := deployments(t, ts)[0]; d.RestoreFaults != 0 || d.Restored != 1 {
		t.Fatalf("restore faults %d, restored %d; the new plan fired on the old request's restore", d.RestoreFaults, d.Restored)
	}
	if _, err := h.Invoke(""); err != nil {
		t.Fatalf("a restore fault after the reply failed the request: %v", err)
	}
	h.Settle()
	if d := deployments(t, ts)[0]; d.RestoreFaults != 1 || d.Containers != 0 || d.Invoked != 2 {
		t.Fatalf("after the post-reply restore fault: %+v; want 1 restore fault, 0 containers, 2 served", d)
	}
	st, err := h.Invoke("")
	if err != nil {
		t.Fatalf("invoke after the restore fault: %v, want the pool re-pooled", err)
	}
	if st.RolledBack {
		t.Fatalf("a fresh container's first reply reports a rollback: %+v", st)
	}
}
