// Package gateway is the serving data plane in front of internal/server:
// a tinyFaaS-style reverse proxy with per-deployment routing, a zero-alloc
// hot invoke path, and bounded admission queues.
//
// It is the only way a request reaches a deployment. The rest of the HTTP
// listener falls through to internal/server's JSON control plane, which
// only lists (/deployments, /functions, /modes); this package is priced for
// traffic. Four design rules hold on the hot path:
//
//   - No per-request JSON. POST /fn/<name> takes the raw request body,
//     returns the raw body (the simulated functions produce no payload of
//     their own, so the data plane echoes the input — end-to-end payload
//     integrity is testable), and reports per-request metadata in one
//     response header (X-Gh-Stats: e2e_us=..;invoker_us=..;restored=0|1,
//     where restored=1 means the container was rolled back since its
//     previous request). Isolation mode and caller principal ride request
//     headers (X-Gh-Mode, X-Gh-Caller).
//
//   - Reply first, then restore. server.Handle.Invoke returns once the
//     response exists and leaves the request's rollback pending; the
//     listener writes the reply, then calls Handle.Settle, and whoever
//     takes the deployment lock next settles first if Settle could not. No
//     deployment lock is held across a socket write, and a request still
//     reaches a container only after the previous request's rollback (§4.5).
//
//   - No per-request allocation from the gateway itself. Request records
//     and body buffers are pooled, the route table is read-locked and
//     keyed so lookups never build strings, and the response metadata is
//     formatted into a pooled buffer. The steady-state budget — gateway
//     plus the whole simulated invoke underneath — is pinned at
//     <= 2 allocs/request by TestGatewayHTTPAllocsPerRequest (the two are
//     the header value string and the header's value slice).
//
//   - No unbounded goroutine pileup. Each deployment has a bounded
//     admission queue (Config.QueueDepth slots covering waiting and
//     executing requests). When it is full the gateway answers 429 with a
//     Retry-After derived from the deployment's observed cold-start mean —
//     the time a scale-up would need — instead of letting requests stack
//     on the deployment lock. Queues are per-deployment, so one saturated
//     (or shut down, or crashing) function cannot wedge its neighbors.
//
// A second listener speaks a compact length-prefixed binary protocol next
// to HTTP (binary.go) for clients that want the same invoke path without
// HTTP framing; both listeners share the routes, queues, and counters.
package gateway

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"groundhog/internal/faas"
	"groundhog/internal/isolation"
	"groundhog/internal/server"
)

// fnPrefix is the data-plane route prefix: POST /fn/<name> invokes the
// catalog function <name> (URL-escaped; names contain spaces) under the
// isolation mode named by the X-Gh-Mode header (default gh).
const fnPrefix = "/fn/"

// Config parameterizes a Gateway. The zero value selects the defaults.
type Config struct {
	// QueueDepth bounds each deployment's admission queue: the number of
	// requests admitted (waiting or executing) before the gateway sheds
	// load with 429 + Retry-After. This is the policy's scale headroom —
	// requests a single-container deployment can have in flight while a
	// scale-up would still beat the retry. 0 selects DefaultQueueDepth.
	QueueDepth int
}

// DefaultQueueDepth is the per-deployment admission bound.
const DefaultQueueDepth = 32

// MaxBody caps the request body (HTTP) and frame payload (binary) at 1 MiB.
const MaxBody = 1 << 20

// Stats is a point-in-time snapshot of the gateway's serving counters,
// summed over both listeners.
type Stats struct {
	// Served counts requests answered 200 (or the binary OK frame).
	Served uint64
	// Rejected counts admissions shed with 429 / queue-full frames.
	Rejected uint64
}

// Gateway fronts a server.Server's deployments for both listeners. Create
// with New; a Gateway must not be copied.
type Gateway struct {
	srv     *server.Server
	cfg     Config
	control http.Handler

	mu     sync.RWMutex
	routes map[string]*routeSet
	byID   []*route

	served   atomic.Uint64
	rejected atomic.Uint64

	closed atomic.Bool
	connMu sync.Mutex
	conns  map[io.Closer]struct{}

	// maxBody is MaxBody and binaryIdle is BinaryIdleTimeout; fields so the
	// size tests need not send a mebibyte and the deadline tests need not
	// wait a minute.
	maxBody    int
	binaryIdle time.Duration
}

// routeSet is one function's routes across isolation modes, indexed by
// position in isolation.Modes so the hot path never concatenates a map key.
type routeSet struct {
	byMode [len(isolation.Modes)]*route
}

// route is one fn × mode deployment's data-plane state.
type route struct {
	name    string
	modeIdx int
	id      uint32
	h       *server.Handle

	// slots is the admission queue: buffered to QueueDepth, one slot held
	// from admission until Invoke returns with the response (not while the
	// response is written or the restore runs after it — a slow client
	// never holds admission capacity).
	slots chan struct{}
}

// retrySecs is the Retry-After a shed or transiently failed request gets:
// the time a scale-up would take (the deployment's published cold-start
// mean), never below one second. It reads no lock, so a wedged deployment
// still sheds load instantly.
func (rt *route) retrySecs() int64 {
	return max(1, int64(math.Ceil(rt.h.ColdStartMeanMs()/1000)))
}

// retryAfter renders the route's Retry-After seconds.
func (rt *route) retryAfter() string {
	return strconv.FormatInt(rt.retrySecs(), 10)
}

// New returns a gateway over s.
func New(s *server.Server, cfg Config) *Gateway {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	return &Gateway{
		srv:     s,
		cfg:     cfg,
		control: s.Handler(),
		routes:  make(map[string]*routeSet),
		conns:   make(map[io.Closer]struct{}),

		maxBody:    MaxBody,
		binaryIdle: BinaryIdleTimeout,
	}
}

// ServeHTTP implements http.Handler: /fn/ is the data plane, everything
// else falls through to the server's control plane (so one listener serves
// both, tinyFaaS-style). The dispatch is a prefix test, not a mux, so
// direct drivers (the alloc guard, the bench harness) measure exactly the
// serving path.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, fnPrefix) {
		g.handleFn(w, r)
		return
	}
	g.control.ServeHTTP(w, r)
}

// Handler returns the gateway as an http.Handler (it serves both planes).
func (g *Gateway) Handler() http.Handler { return g }

// Snapshot reports the gateway's serving counters.
func (g *Gateway) Snapshot() Stats {
	return Stats{
		Served:   g.served.Load(),
		Rejected: g.rejected.Load(),
	}
}

// Close shuts the data plane down: binary listeners stop accepting and
// open binary connections are closed. The HTTP handler keeps answering
// (its listener belongs to the caller); invokes against a shut-down
// server.Server fail with 404 once the deployments are gone.
func (g *Gateway) Close() error {
	g.closed.Store(true)
	g.connMu.Lock()
	for c := range g.conns {
		_ = c.Close()
	}
	g.conns = make(map[io.Closer]struct{})
	g.connMu.Unlock()
	return nil
}

// ghModeIdx is the index of the default mode (gh) in isolation.Modes.
var ghModeIdx = slices.Index(isolation.Modes[:], isolation.ModeGH)

// modeIndex maps an X-Gh-Mode header value to its isolation.Modes index
// without allocating; empty selects gh, unknown returns -1.
func modeIndex(s string) int {
	if s == "" {
		return ghModeIdx
	}
	return slices.Index(isolation.Modes[:], isolation.Mode(s))
}

// job is the pooled per-request record: the body buffer and the header
// scratch survive across requests so the steady-state handler allocates
// neither.
type job struct {
	body []byte
	hdr  []byte
	// clen is the Content-Length header value for a body of clenN bytes. It
	// is rebuilt when the body length changes, never edited in place (a
	// header map may still hold it), so same-size replies allocate nothing
	// for it.
	clen  []string
	clenN int
}

// contentLength returns the Content-Length header value for j.body.
func (j *job) contentLength() []string {
	if j.clen == nil || j.clenN != len(j.body) {
		j.clen, j.clenN = []string{strconv.Itoa(len(j.body))}, len(j.body)
	}
	return j.clen
}

var jobPool = sync.Pool{New: func() any { return &job{} }}

// readAll reads r fully into buf (reusing its capacity), failing once the
// body exceeds max. The buffer grows to at most max+1 bytes: a body of
// exactly max bytes then ends in io.EOF with room to spare, and one byte
// more is the proof it is too large.
func readAll(r io.Reader, buf []byte, max int) ([]byte, error) {
	for {
		if len(buf) > max {
			return buf, errBodyTooLarge
		}
		if len(buf) == cap(buf) {
			grow := cap(buf)
			if grow < 512 {
				grow = 512
			}
			if cap(buf)+grow > max+1 {
				grow = max + 1 - cap(buf)
			}
			nb := make([]byte, len(buf), cap(buf)+grow)
			copy(nb, buf)
			buf = nb
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

var errBodyTooLarge = errors.New("gateway: request body exceeds MaxBody")

// appendStats renders the X-Gh-Stats header value into b.
func appendStats(b []byte, st faas.RequestStats) []byte {
	b = append(b, "e2e_us="...)
	b = strconv.AppendInt(b, int64(st.E2E)/1000, 10)
	b = append(b, ";invoker_us="...)
	b = strconv.AppendInt(b, int64(st.Invoker)/1000, 10)
	if st.RolledBack {
		b = append(b, ";restored=1"...)
	} else {
		b = append(b, ";restored=0"...)
	}
	return b
}

// handleFn is the HTTP data-plane hot path.
func (g *Gateway) handleFn(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	name := r.URL.Path[len(fnPrefix):]
	if name == "" {
		http.Error(w, "missing function name: POST /fn/<name>", http.StatusNotFound)
		return
	}
	mi := modeIndex(r.Header.Get("X-Gh-Mode"))
	if mi < 0 {
		http.Error(w, fmt.Sprintf("unknown mode %q", r.Header.Get("X-Gh-Mode")),
			http.StatusBadRequest)
		return
	}
	rt, err := g.route(name, mi)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}

	// Admission: one bounded slot per request, held from here until Invoke
	// returns with the response. A full queue sheds immediately — no
	// goroutine ever waits on a deployment it was not admitted to.
	select {
	case rt.slots <- struct{}{}:
	default:
		g.rejected.Add(1)
		w.Header().Set("Retry-After", rt.retryAfter())
		http.Error(w, "deployment queue full", http.StatusTooManyRequests)
		return
	}

	j := jobPool.Get().(*job)
	j.body, err = readAll(r.Body, j.body[:0], g.maxBody)
	if err != nil {
		<-rt.slots
		jobPool.Put(j)
		status := http.StatusBadRequest
		if errors.Is(err, errBodyTooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), status)
		return
	}

	st, err := rt.h.Invoke(r.Header.Get("X-Gh-Caller"))
	<-rt.slots
	if err != nil {
		jobPool.Put(j)
		g.failInvoke(w, rt, err)
		return
	}
	g.served.Add(1)

	// The reply leaves before the restore: with Content-Length set, Flush
	// puts the whole response on the wire (without it, Flush switches to
	// chunked encoding, whose last chunk only the handler's return writes),
	// and the deployment's pending cleanup runs after.
	j.hdr = appendStats(j.hdr[:0], st)
	hdr := w.Header()
	hdr.Set("X-Gh-Stats", string(j.hdr))
	hdr["Content-Length"] = j.contentLength()
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(j.body)
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
	jobPool.Put(j)
	rt.h.Settle()
}

// failInvoke maps an invoke error onto the HTTP status taxonomy: gone
// deployments 404 (and the stale route is dropped so the next request
// re-registers), transient failures 503 + Retry-After, everything else 500.
func (g *Gateway) failInvoke(w http.ResponseWriter, rt *route, err error) {
	switch {
	case errors.Is(err, server.ErrGone):
		g.dropRoute(rt)
		http.Error(w, err.Error(), http.StatusNotFound)
	case faas.IsTransient(err):
		w.Header().Set("Retry-After", rt.retryAfter())
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// route returns the cached route for (name, mode index), registering it on
// first use. The fast path is a read-locked map lookup on the path slice —
// no allocation, no string building.
func (g *Gateway) route(name string, mi int) (*route, error) {
	g.mu.RLock()
	rs := g.routes[name]
	var rt *route
	if rs != nil {
		rt = rs.byMode[mi]
	}
	g.mu.RUnlock()
	if rt != nil {
		return rt, nil
	}
	return g.register(name, mi)
}

// register resolves (name, mode) against the server's registry and installs
// the route. Slow path: allocation and validation live here.
func (g *Gateway) register(name string, mi int) (*route, error) {
	h, err := g.srv.DataPlane(name, isolation.Modes[mi])
	if err != nil {
		return nil, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	rs := g.routes[name]
	if rs == nil {
		rs = &routeSet{}
		g.routes[name] = rs
	}
	if rt := rs.byMode[mi]; rt != nil {
		return rt, nil
	}
	rt := &route{
		name:    name,
		modeIdx: mi,
		id:      uint32(len(g.byID)),
		h:       h,
		slots:   make(chan struct{}, g.cfg.QueueDepth),
	}
	g.byID = append(g.byID, rt)
	rs.byMode[mi] = rt
	return rt, nil
}

// routeByID resolves a binary-protocol route ID.
func (g *Gateway) routeByID(id uint32) *route {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if int(id) >= len(g.byID) {
		return nil
	}
	return g.byID[id]
}

// dropRoute removes a route whose deployment is gone. The byID slot keeps
// the stale pointer (binary route IDs are never reused within a gateway's
// lifetime); its invokes keep failing with ErrGone until the client
// re-resolves.
func (g *Gateway) dropRoute(rt *route) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if rs := g.routes[rt.name]; rs != nil && rs.byMode[rt.modeIdx] == rt {
		rs.byMode[rt.modeIdx] = nil
	}
}
