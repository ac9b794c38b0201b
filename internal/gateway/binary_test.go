package gateway

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

// frame wraps op+payload in the length prefix.
func frame(op byte, payload []byte) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(1+len(payload)))
	b = append(b, op)
	return append(b, payload...)
}

func resolvePayload(mode byte, fn string) []byte {
	p := []byte{mode}
	p = binary.BigEndian.AppendUint16(p, uint16(len(fn)))
	return append(p, fn...)
}

func invokePayload(id uint32, caller string, body []byte) []byte {
	p := binary.BigEndian.AppendUint32(nil, id)
	p = append(p, byte(len(caller)))
	p = append(p, caller...)
	return append(p, body...)
}

// readFrame reads one response frame.
func readFrame(t *testing.T, r io.Reader) (op byte, payload []byte) {
	t.Helper()
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		t.Fatalf("read frame header: %v", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		t.Fatalf("read frame payload: %v", err)
	}
	return buf[0], buf[1:]
}

// errFrame decodes an error frame payload.
func errFrame(t *testing.T, op byte, p []byte) (code byte, retrySecs uint16, msg string) {
	t.Helper()
	if op != opError {
		t.Fatalf("op = %d, want error frame", op)
	}
	if len(p) < 5 {
		t.Fatalf("short error payload: %d bytes", len(p))
	}
	code = p[0]
	retrySecs = binary.BigEndian.Uint16(p[1:3])
	msgLen := int(binary.BigEndian.Uint16(p[3:5]))
	if len(p) != 5+msgLen {
		t.Fatalf("error frame length mismatch")
	}
	return code, retrySecs, string(p[5:])
}

// startConn wires a net.Pipe client to a served binary connection.
func startConn(t *testing.T, g *Gateway) net.Conn {
	t.Helper()
	client, srv := net.Pipe()
	go func() { _ = g.ServeBinaryConn(srv) }()
	t.Cleanup(func() { client.Close() })
	return client
}

// resolveID performs a resolve roundtrip and returns the route ID.
func resolveID(t *testing.T, c net.Conn, mode byte, fn string) uint32 {
	t.Helper()
	if _, err := c.Write(frame(opResolve, resolvePayload(mode, fn))); err != nil {
		t.Fatal(err)
	}
	op, p := readFrame(t, c)
	if op != opResolve || len(p) != 4 {
		code, _, msg := errFrame(t, op, p)
		t.Fatalf("resolve %q: error code %d: %s", fn, code, msg)
	}
	return binary.BigEndian.Uint32(p)
}

// TestBinaryResolveInvokeRoundtrip: the happy path — resolve a function to
// a route ID, invoke it with a caller and body, get timings + the echoed
// body back; re-resolving yields the same ID (routes are cached).
func TestBinaryResolveInvokeRoundtrip(t *testing.T) {
	_, g := newGateway(t, Config{})
	c := startConn(t, g)

	id := resolveID(t, c, modeDefault, "get-time (p)")
	if again := resolveID(t, c, modeDefault, "get-time (p)"); again != id {
		t.Fatalf("re-resolve: id %d != %d", again, id)
	}

	body := []byte("hello, binary plane")
	if _, err := c.Write(frame(opInvoke, invokePayload(id, "alice", body))); err != nil {
		t.Fatal(err)
	}
	op, p := readFrame(t, c)
	if op != opInvoke {
		code, _, msg := errFrame(t, op, p)
		t.Fatalf("invoke: error code %d: %s", code, msg)
	}
	if len(p) < 17 {
		t.Fatalf("invoke response too short: %d bytes", len(p))
	}
	e2eUs := binary.BigEndian.Uint64(p[:8])
	invokerUs := binary.BigEndian.Uint64(p[8:16])
	if e2eUs == 0 || invokerUs == 0 || invokerUs > e2eUs {
		t.Fatalf("timings e2e=%dus invoker=%dus", e2eUs, invokerUs)
	}
	if string(p[17:]) != string(body) {
		t.Fatalf("echo = %q, want %q", p[17:], body)
	}
	if snap := g.Snapshot(); snap.Served != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

// TestBinarySemanticErrorsSurvive: frames that parse but fail semantically
// answer an error frame and the connection keeps serving.
func TestBinarySemanticErrorsSurvive(t *testing.T) {
	_, g := newGateway(t, Config{})
	c := startConn(t, g)

	cases := []struct {
		name string
		f    []byte
		code byte
	}{
		{"unknown fn", frame(opResolve, resolvePayload(modeDefault, "no-such-fn")), CodeUnknown},
		{"unknown mode index", frame(opResolve, resolvePayload(200, "get-time (p)")), CodeUnknown},
		{"unknown route id", frame(opInvoke, invokePayload(4242, "", nil)), CodeUnknown},
		{"unknown op", frame(9, []byte("x")), CodeBadOp},
		{"short resolve", frame(opResolve, []byte{0}), CodeBadFrame},
		{"resolve length mismatch", frame(opResolve, resolvePayload(modeDefault, "get-time (p)")[:8]), CodeBadFrame},
		{"short invoke", frame(opInvoke, []byte{0, 0, 1}), CodeBadFrame},
		{"invoke caller overrun", frame(opInvoke, []byte{0, 0, 0, 0, 200, 'a'}), CodeBadFrame},
	}
	for _, tc := range cases {
		if _, err := c.Write(tc.f); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		op, p := readFrame(t, c)
		if code, _, msg := errFrame(t, op, p); code != tc.code {
			t.Fatalf("%s: code %d (%s), want %d", tc.name, code, msg, tc.code)
		}
	}
	// The same connection still serves after every malformed frame.
	id := resolveID(t, c, modeDefault, "get-time (p)")
	if _, err := c.Write(frame(opInvoke, invokePayload(id, "", []byte("still alive")))); err != nil {
		t.Fatal(err)
	}
	if op, p := readFrame(t, c); op != opInvoke || string(p[17:]) != "still alive" {
		t.Fatalf("post-garbage invoke: op=%d payload=%q", op, p)
	}
}

// TestBinaryLongErrorMessageFits: at the production MaxBody a resolve may
// name a function of 65,535 bytes. The error quoting it back is clipped to
// the frame's u16 message length, so the frame still states its own size,
// and the connection keeps serving.
func TestBinaryLongErrorMessageFits(t *testing.T) {
	_, g := newGateway(t, Config{})
	c := startConn(t, g)
	name := strings.Repeat("x", math.MaxUint16)
	if _, err := c.Write(frame(opResolve, resolvePayload(modeDefault, name))); err != nil {
		t.Fatal(err)
	}
	op, p := readFrame(t, c)
	if code, _, msg := errFrame(t, op, p); code != CodeUnknown || len(msg) != math.MaxUint16 {
		t.Fatalf("long unknown name: code %d, %d-byte message; want CodeUnknown and %d bytes",
			code, len(msg), math.MaxUint16)
	}
	resolveID(t, c, modeDefault, "get-time (p)")
}

// TestBinaryBadLengthCloses: a broken length prefix poisons the stream
// offset — the gateway answers CodeBadFrame and closes the connection.
func TestBinaryBadLengthCloses(t *testing.T) {
	_, g := newGateway(t, Config{})
	g.maxBody = 1024
	for name, raw := range map[string][]byte{
		"zero length":      binary.BigEndian.AppendUint32(nil, 0),
		"oversized length": binary.BigEndian.AppendUint32(nil, uint32(1024+frameOverhead+1)),
	} {
		c := startConn(t, g)
		if _, err := c.Write(raw); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		op, p := readFrame(t, c)
		if code, _, _ := errFrame(t, op, p); code != CodeBadFrame {
			t.Fatalf("%s: code %d, want %d", name, code, CodeBadFrame)
		}
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		var one [1]byte
		if _, err := c.Read(one[:]); !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrClosedPipe) {
			t.Fatalf("%s: connection still open after bad length (read err %v)", name, err)
		}
	}
}

// TestBinaryQueueFullFrame: admission control speaks the binary protocol
// too — a full deployment queue answers CodeQueueFull with the same
// Retry-After the HTTP plane would send.
func TestBinaryQueueFullFrame(t *testing.T) {
	_, g := newGateway(t, Config{QueueDepth: 1})
	c := startConn(t, g)
	fn := "get-time (p)"
	id := resolveID(t, c, modeDefault, fn)

	// Warm up, so the Retry-After hint comes from an observed cold start.
	if _, err := c.Write(frame(opInvoke, invokePayload(id, "", nil))); err != nil {
		t.Fatal(err)
	}
	if op, _ := readFrame(t, c); op != opInvoke {
		t.Fatal("warmup invoke failed")
	}

	rt, err := g.route(fn, ghModeIdx)
	if err != nil {
		t.Fatal(err)
	}
	drain := fillSlots(rt)

	if _, err := c.Write(frame(opInvoke, invokePayload(id, "", nil))); err != nil {
		t.Fatal(err)
	}
	op, p := readFrame(t, c)
	code, retry, _ := errFrame(t, op, p)
	if code != CodeQueueFull || retry < 1 {
		t.Fatalf("code=%d retry=%d, want CodeQueueFull with retry >= 1", code, retry)
	}

	drain()
	if _, err := c.Write(frame(opInvoke, invokePayload(id, "", nil))); err != nil {
		t.Fatal(err)
	}
	if op, _ := readFrame(t, c); op != opInvoke {
		t.Fatal("invoke after drain failed")
	}
}

// TestBinarySlowConsumerDoesNotWedgeHTTP: a binary client that stops
// reading blocks only its own connection's response write — the admission
// slot and the deployment lock are released before the write, so HTTP
// traffic to the same deployment keeps flowing. The stalled reply also holds
// back its own Settle, so the HTTP requests settle its restore in its place:
// each of their replies follows a rollback, and every request's rollback
// runs exactly once.
func TestBinarySlowConsumerDoesNotWedgeHTTP(t *testing.T) {
	_, g := newGateway(t, Config{QueueDepth: 2})
	ts := serveHTTP(t, g)
	c := startConn(t, g)
	fn := "get-time (p)"
	id := resolveID(t, c, modeDefault, fn)

	// Fire an invoke with a fat body and do NOT read the response: the
	// serving goroutine finishes the invoke, releases its slot, and parks
	// in the response write (net.Pipe is unbuffered).
	big := make([]byte, 8192)
	for i := range big {
		big[i] = byte(i)
	}
	go func() { c.Write(frame(opInvoke, invokePayload(id, "", big))) }()
	waitUntil(t, "binary invoke to complete", func() bool { return g.Snapshot().Served >= 1 })

	const posts = 5
	for i := 0; i < posts; i++ {
		status, _, hdr := postFn(t, fnURL(ts.URL, fn), "http while binary stalls")
		if status != http.StatusOK {
			t.Fatalf("http request %d: status %d, want 200", i, status)
		}
		if st := hdr.Get("X-Gh-Stats"); !strings.HasSuffix(st, ";restored=1") {
			t.Fatalf("http request %d ran before the previous request's rollback: X-Gh-Stats %q", i, st)
		}
	}

	// Finally drain the stalled response: intact echo, nothing corrupted.
	op, p := readFrame(t, c)
	if op != opInvoke || string(p[17:]) != string(big) {
		t.Fatalf("stalled response corrupt: op=%d len=%d", op, len(p))
	}
	if p[16]&flagRestored != 0 {
		t.Fatal("the container's first reply reports a rollback before it")
	}
	if d := listDeployments(t, ts.URL); len(d) != 1 || d[0].Invoked != 1+posts || d[0].Restored != 1+posts {
		t.Fatalf("deployments %+v, want %d requests served and rolled back once each", d, 1+posts)
	}
}

// TestBinaryOverTCPAndClose: ServeBinary on a real listener serves dialed
// connections, and Close unblocks both the accept loop and open
// connections.
func TestBinaryOverTCPAndClose(t *testing.T) {
	_, g := newGateway(t, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- g.ServeBinary(ln) }()

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id := resolveID(t, c, modeDefault, "version (p)")
	if _, err := c.Write(frame(opInvoke, invokePayload(id, "tcp-client", []byte("over tcp")))); err != nil {
		t.Fatal(err)
	}
	if op, p := readFrame(t, c); op != opInvoke || string(p[17:]) != "over tcp" {
		t.Fatalf("tcp invoke: op=%d payload=%q", op, p)
	}

	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ServeBinary returned %v after Close", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("ServeBinary did not return after Close")
	}
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	var one [1]byte
	if _, err := c.Read(one[:]); err == nil {
		t.Fatal("connection still open after Close")
	}
}

// TestBinaryIdleDeadline: a binary connection that stops delivering complete
// frames is closed within the idle timeout — silent from the start, or
// trickling a frame a byte at a time so every single read succeeds — and so
// is one that keeps sending invokes and never reads a reply, which would
// otherwise park its goroutine in conn.Write; while one that keeps invoking
// for several timeouts on end is served throughout, and closed in its turn
// once it falls silent. Over net.Pipe and over TCP
// loopback: the two net.Conn deadline implementations the listener meets.
func TestBinaryIdleDeadline(t *testing.T) {
	const idle = 150 * time.Millisecond
	dialers := map[string]func(*testing.T, *Gateway) net.Conn{
		"pipe": startConn,
		"tcp": func(t *testing.T, g *Gateway) net.Conn {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go func() { _ = g.ServeBinary(ln) }()
			c, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			return c
		},
	}
	// closedWithin reads until the server's close surfaces and fails if that
	// takes longer than the timeout plus scheduling slack (or if the server
	// answers instead).
	closedWithin := func(t *testing.T, c net.Conn, since time.Time) {
		t.Helper()
		c.SetReadDeadline(since.Add(idle + 2*time.Second))
		var one [1]byte
		if _, err := c.Read(one[:]); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("connection not closed %v after its last complete frame (read: %v)", time.Since(since), err)
		}
	}
	for name, dial := range dialers {
		t.Run(name, func(t *testing.T) {
			_, g := newGateway(t, Config{})
			g.binaryIdle = idle

			t.Run("idle", func(t *testing.T) {
				start := time.Now()
				closedWithin(t, dial(t, g), start)
			})
			t.Run("dribble", func(t *testing.T) {
				c := dial(t, g)
				start := time.Now()
				// A well-formed frame, one byte every idle/5: no read ever
				// waits long, the frame would take fifty timeouts to complete.
				go func() {
					for _, b := range frame(opInvoke, make([]byte, 250)) {
						if _, err := c.Write([]byte{b}); err != nil {
							return
						}
						time.Sleep(idle / 5)
					}
				}()
				closedWithin(t, c, start)
			})
			t.Run("busy", func(t *testing.T) {
				c := dial(t, g)
				id := resolveID(t, c, modeDefault, "get-time (p)")
				req := frame(opInvoke, invokePayload(id, "", []byte("tick")))
				for end := time.Now().Add(4 * idle); time.Now().Before(end); time.Sleep(idle / 5) {
					if _, err := c.Write(req); err != nil {
						t.Fatalf("busy connection closed: %v", err)
					}
					if op, _ := readFrame(t, c); op != opInvoke {
						t.Fatalf("busy connection answered op %d", op)
					}
				}
				closedWithin(t, c, time.Now())
			})
			t.Run("never reads", func(t *testing.T) {
				c := dial(t, g)
				id := resolveID(t, c, modeDefault, "get-time (p)")
				// A reply echoes the body, so 64 KiB a frame fills a loopback
				// socket's buffers within a few dozen invokes (a pipe has
				// none): from then on the server waits in Write, not Read,
				// and this side's writes stall behind it.
				req := frame(opInvoke, invokePayload(id, "", make([]byte, 64<<10)))
				for last := time.Now(); ; last = time.Now() {
					c.SetWriteDeadline(last.Add(idle + 2*time.Second))
					if _, err := c.Write(req); errors.Is(err, os.ErrDeadlineExceeded) {
						t.Fatalf("connection not closed %v after the last frame it took", time.Since(last))
					} else if err != nil {
						return // closed by the server
					}
				}
			})
		})
	}
}
