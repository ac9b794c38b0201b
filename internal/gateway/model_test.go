package gateway

import (
	"fmt"
	"net/http"
	"strings"
	"testing"

	"groundhog/internal/catalog"
	"groundhog/internal/faas"
	"groundhog/internal/isolation"
	"groundhog/internal/kernel"
)

// reply is what a live reply reports of a request: its latencies in whole
// microseconds and whether the container was rolled back since its
// previous request.
type reply struct {
	e2eUs, invokerUs uint64
	restored         bool
}

// playHTTP plays callers one at a time over POST /fn/ and reads each
// reply's X-Gh-Stats header.
func playHTTP(t *testing.T, g *Gateway, fn string, callers []string) []reply {
	t.Helper()
	ts := serveHTTP(t, g)
	out := make([]reply, len(callers))
	for i, caller := range callers {
		req, err := http.NewRequest(http.MethodPost, fnURL(ts.URL, fn), strings.NewReader("hi"))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Gh-Mode", string(isolation.ModeGH))
		req.Header.Set("X-Gh-Caller", caller)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("http request %d: status %d", i+1, resp.StatusCode)
		}
		var restored int
		st := resp.Header.Get("X-Gh-Stats")
		if _, err := fmt.Sscanf(st, "e2e_us=%d;invoker_us=%d;restored=%d",
			&out[i].e2eUs, &out[i].invokerUs, &restored); err != nil {
			t.Fatalf("http request %d: X-Gh-Stats %q: %v", i+1, st, err)
		}
		out[i].restored = restored == 1
	}
	return out
}

// playBinary plays callers one at a time over the binary protocol on a
// net.Pipe connection.
func playBinary(t *testing.T, g *Gateway, fn string, callers []string) []reply {
	t.Helper()
	c := NewBinaryClient(startConn(t, g))
	id, err := c.Resolve(fn, isolation.ModeGH)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]reply, len(callers))
	for i, caller := range callers {
		res, err := c.Invoke(id, caller, []byte("hi"))
		if err != nil {
			t.Fatalf("binary request %d: %v", i+1, err)
		}
		out[i] = reply{res.E2EUs, res.InvokerUs, res.Restored}
	}
	return out
}

// TestTransportsReplyWhatInvokeOnceReports: the live plane is a transport,
// not a second model. Callers alice, bob, alice, alice, bob and an
// anonymous one play get-time (p) under GH, with the trusted-caller
// optimisation off and on, over HTTP and over the binary protocol; every
// reply carries what faas.Platform.InvokeOnce reports for the same caller
// sequence on a platform built as the server builds a deployment: one
// container, seed 1.
func TestTransportsReplyWhatInvokeOnceReports(t *testing.T) {
	const fn = "get-time (p)"
	callers := []string{"alice", "bob", "alice", "alice", "bob", ""}
	entry, err := catalog.Lookup(fn)
	if err != nil {
		t.Fatal(err)
	}
	transports := []struct {
		name string
		play func(*testing.T, *Gateway, string, []string) []reply
	}{{"http", playHTTP}, {"binary", playBinary}}

	for _, trust := range []bool{false, true} {
		pl, err := faas.NewPlatform(kernel.Default(), entry.Prof, isolation.ModeGH, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		pl.TrustSameCaller = trust
		want := make([]reply, len(callers))
		for i, caller := range callers {
			st, err := pl.InvokeOnce(caller)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = reply{uint64(st.E2E) / 1000, uint64(st.Invoker) / 1000, st.RolledBack}
		}
		pl.Teardown()

		for _, tr := range transports {
			s, g := newGateway(t, Config{})
			s.SetTrustSameCaller(trust)
			got := tr.play(t, g, fn, callers)
			for i := range callers {
				if got[i] != want[i] {
					t.Errorf("trust=%v %s request %d (caller %q): reply %+v, InvokeOnce %+v",
						trust, tr.name, i+1, callers[i], got[i], want[i])
				}
			}
		}
	}
}
