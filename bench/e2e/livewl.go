package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"sync"
	"time"

	"groundhog/internal/gateway"
	"groundhog/internal/server"
)

// liveSystem is one serving stack brought up the way cmd/ghserve does it: a
// server, a gateway in front, an HTTP listener and a binary listener on TCP
// loopback. spin > 0 arms the self-check's perturbation: a harness shim
// that burns that much CPU per request inside the serving path.
type liveSystem struct {
	srv     *server.Server
	gw      *gateway.Gateway
	httpSrv *http.Server
	httpLn  net.Listener
	binLn   net.Listener
	served  sync.WaitGroup
}

func startLive(spin time.Duration) (*liveSystem, error) {
	l := &liveSystem{srv: server.New()}
	l.gw = gateway.New(l.srv, gateway.Config{})
	var err error
	if l.httpLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	if l.binLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		l.httpLn.Close()
		return nil, err
	}
	handler := l.gw.Handler()
	binLn := l.binLn
	if spin > 0 {
		inner := handler
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			spinFor(spin)
			inner.ServeHTTP(w, r)
		})
		binLn = spinListener{l.binLn, spin}
	}
	l.httpSrv = &http.Server{Handler: handler}
	l.served.Add(2)
	go func() { defer l.served.Done(); _ = l.httpSrv.Serve(l.httpLn) }()
	go func() { defer l.served.Done(); _ = l.gw.ServeBinary(binLn) }()
	return l, nil
}

// stop tears the stack down and reports frames leaked by the server.
func (l *liveSystem) stop() int {
	_ = l.httpSrv.Close()
	_ = l.gw.Close()
	l.served.Wait()
	return l.srv.Shutdown()
}

func spinFor(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// spinListener wraps accepted connections so every response write first
// burns CPU: the binary plane writes exactly one frame per request.
type spinListener struct {
	net.Listener
	spin time.Duration
}

func (s spinListener) Accept() (net.Conn, error) {
	c, err := s.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return spinConn{c, s.spin}, nil
}

type spinConn struct {
	net.Conn
	spin time.Duration
}

func (c spinConn) Write(p []byte) (int, error) {
	spinFor(c.spin)
	return c.Conn.Write(p)
}

// payload builds a seeded body; stamp makes each request's bytes distinct so
// an echo of a stale buffer cannot pass the comparison.
func payload(r *splitmix, n int) []byte {
	b := make([]byte, n)
	for i := 0; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(b[i:], r.next())
	}
	return b
}

func stamp(b []byte, seq uint64) { binary.LittleEndian.PutUint64(b, seq) }

// tally counts a segment's operations by outcome; everything but ok is a
// failed operation.
type tally struct {
	ok, rejected, transient, transport, mismatch int
}

func (t *tally) add(o tally) {
	t.ok += o.ok
	t.rejected += o.rejected
	t.transient += o.transient
	t.transport += o.transport
	t.mismatch += o.mismatch
}

func (t tally) failed() int { return t.rejected + t.transient + t.transport + t.mismatch }

// binWorker is one closed-loop binary-protocol connection.
type binWorker struct {
	c    *gateway.BinaryClient
	id   uint32
	body []byte
	seq  uint64
	rec  *spanLog // traced segments record one span per request
	seg  int
}

func dialBin(addr, fn string, body []byte) (*binWorker, error) {
	c, err := gateway.DialBinary(addr)
	if err != nil {
		return nil, err
	}
	id, err := c.Resolve(fn, "")
	if err != nil {
		c.Close()
		return nil, err
	}
	return &binWorker{c: c, id: id, body: body}, nil
}

// do sends n requests back to back, appending each one's raw latency (ns).
func (w *binWorker) do(n int, lat []float64) ([]float64, tally) {
	var t tally
	for i := 0; i < n; i++ {
		w.seq++
		stamp(w.body, w.seq)
		start := time.Now()
		res, err := w.c.Invoke(w.id, "", w.body)
		d := time.Since(start)
		var pe *gateway.ProtoError
		switch {
		case err == nil && bytes.Equal(res.Body, w.body):
			t.ok++
			lat = append(lat, float64(d))
			w.rec.add(0, w.seg, wlLiveClosed+".request", start, start.Add(d), 1)
		case err == nil:
			t.mismatch++
		case errors.As(err, &pe) && pe.Code == gateway.CodeQueueFull:
			t.rejected++
		case errors.As(err, &pe) && pe.Code == gateway.CodeTransient:
			t.transient++
		default:
			t.transport++
		}
	}
	return lat, t
}

// httpWorker posts to the gateway's HTTP data plane over a kept-alive
// connection from a shared transport.
type httpWorker struct {
	client *http.Client
	url    string
	body   []byte
	rd     bytes.Reader
	buf    bytes.Buffer
	rec    *spanLog
	seg    int
}

func newHTTPWorkers(addr, fn string, n int, r *splitmix) []*httpWorker {
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: n}}
	u := "http://" + addr + "/fn/" + url.PathEscape(fn)
	ws := make([]*httpWorker, n)
	for i := range ws {
		ws[i] = &httpWorker{client: client, url: u, body: payload(r, liveOpenBody)}
	}
	return ws
}

// post sends one request carrying seq and classifies the outcome.
func (w *httpWorker) post(seq uint64) tally {
	stamp(w.body, seq)
	w.rd.Reset(w.body)
	req, err := http.NewRequest(http.MethodPost, w.url, &w.rd)
	if err != nil {
		return tally{transport: 1}
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return tally{transport: 1}
	}
	w.buf.Reset()
	_, err = io.Copy(&w.buf, resp.Body)
	resp.Body.Close()
	switch {
	case err != nil:
		return tally{transport: 1}
	case resp.StatusCode == http.StatusTooManyRequests:
		return tally{rejected: 1}
	case resp.StatusCode == http.StatusServiceUnavailable:
		return tally{transient: 1}
	case resp.StatusCode != http.StatusOK:
		return tally{transport: 1}
	case !bytes.Equal(w.buf.Bytes(), w.body):
		return tally{mismatch: 1}
	}
	return tally{ok: 1}
}

// poissonSchedule draws n arrival offsets at rate per second.
func poissonSchedule(r *splitmix, n int, rate float64) []time.Duration {
	due := make([]time.Duration, n)
	t := 0.0
	for i := range due {
		t += -math.Log(r.float()) / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// openLoop runs one open-loop segment: the workers pull arrivals in due
// order, wait for each one's due instant, and time the request from that
// instant, so a stall's queueing is charged to the requests behind it.
// It returns raw latencies and how late each send was, in ns.
func openLoop(ws []*httpWorker, due []time.Duration, seqBase uint64) (lat, late []float64, t tally) {
	var mu sync.Mutex
	next := 0
	start := time.Now()
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *httpWorker) {
			defer wg.Done()
			for {
				mu.Lock()
				k := next
				next++
				mu.Unlock()
				if k >= len(due) {
					return
				}
				at := start.Add(due[k])
				if d := time.Until(at); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				o := w.post(seqBase + uint64(k))
				done := time.Now()
				mu.Lock()
				t.add(o)
				if o.ok == 1 {
					lat = append(lat, float64(done.Sub(at)))
					late = append(late, float64(sent.Sub(at)))
					id := w.rec.add(0, w.seg, wlLiveOpen+".request", at, done, 1)
					w.rec.add(id, w.seg, wlLiveOpen+".pacer_late", at, sent, 1)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return lat, late, t
}

func errLeaked(what string, n int) error {
	return fmt.Errorf("%s leaked %d frames", what, n)
}
