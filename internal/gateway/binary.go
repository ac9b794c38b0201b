// The binary data plane: a compact length-prefixed protocol on a second
// listener, for clients that want the gateway's invoke path without HTTP
// framing (tinyFaaS pairs its HTTP proxy with a CoAP/GRPC listener the
// same way). Both listeners share routes, admission queues, and counters.
//
// Framing (all integers big-endian):
//
//	frame    := len u32 | op u8 | payload          (len counts op+payload)
//	resolve  := op=1 | mode u8 | fnLen u16 | fn    (mode 0xFF = default gh;
//	                                                else isolation.Modes index)
//	         -> op=1 | routeID u32
//	invoke   := op=2 | routeID u32 | callerLen u8 | caller | body
//	         -> op=2 | e2eUs u64 | invokerUs u64 | flags u8 | body (echoed)
//	            flags bit0 = the container was rolled back since its
//	                         previous request (the reply precedes this
//	                         request's own rollback)
//	error    -> op=255 | code u8 | retryAfterSecs u16 | msgLen u16 | msg
//
// Error codes and their connection fate: a frame that parses (known op,
// fields in range) but fails semantically — unknown function, dropped
// route, full queue, transient invoke failure — answers an error frame and
// the connection survives; a frame that breaks framing itself (zero or
// oversized length) answers CodeBadFrame and the connection closes, since
// the stream offset can no longer be trusted.
//
// Route IDs are per-gateway and never reused; a client holding an ID for
// a torn-down deployment keeps receiving CodeGone until it re-resolves.

package gateway

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"time"

	"groundhog/internal/faas"
	"groundhog/internal/isolation"
	"groundhog/internal/server"
)

// Binary protocol ops.
const (
	opResolve byte = 1
	opInvoke  byte = 2
	opError   byte = 0xFF
)

// modeDefault in a resolve frame selects the default mode (gh).
const modeDefault byte = 0xFF

// Binary protocol error codes.
const (
	CodeBadFrame  byte = 1 // framing broken; connection closes
	CodeBadOp     byte = 2 // unknown op; connection survives
	CodeUnknown   byte = 3 // unknown function/mode/routeID
	CodeQueueFull byte = 4 // admission queue full; retryAfterSecs set
	CodeTransient byte = 5 // transient invoke failure; retryAfterSecs set
	CodeGone      byte = 6 // deployment torn down; re-resolve
	CodeInternal  byte = 7 // non-transient invoke failure
)

// frameOverhead caps a frame's non-body bytes; MaxBody+frameOverhead is the
// largest length prefix a conn accepts.
const frameOverhead = 512

// Flags bits in an invoke response.
const flagRestored byte = 1 << 0

// BinaryIdleTimeout is how long a binary connection may go without
// delivering a complete frame, or without taking the reply to one, before the
// gateway closes it — the binary listener's counterpart of the HTTP server's
// IdleTimeout and ReadHeaderTimeout (cmd/ghserve), so a silent peer, one
// trickling a frame a byte at a time, or one that sends frames and never
// reads cannot hold a goroutine until shutdown.
const BinaryIdleTimeout = 60 * time.Second

// ServeBinary accepts connections on ln and serves the binary protocol on
// each until Close (or a listener error). Blocks; run in a goroutine.
func (g *Gateway) ServeBinary(ln net.Listener) error {
	g.connMu.Lock()
	if g.closed.Load() {
		g.connMu.Unlock()
		ln.Close()
		return nil
	}
	g.conns[ln] = struct{}{}
	g.connMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if g.closed.Load() {
				return nil
			}
			return err
		}
		go func() { _ = g.ServeBinaryConn(conn) }()
	}
}

// ServeBinaryConn serves one binary-protocol connection until EOF, a
// framing error, BinaryIdleTimeout without a complete frame or with a reply
// the peer will not read, or gateway Close. Exported so tests and in-process
// clients can drive the protocol over net.Pipe without a listener.
func (g *Gateway) ServeBinaryConn(conn net.Conn) error {
	g.connMu.Lock()
	if g.closed.Load() {
		g.connMu.Unlock()
		conn.Close()
		return nil
	}
	g.conns[conn] = struct{}{}
	g.connMu.Unlock()
	defer func() {
		g.connMu.Lock()
		delete(g.conns, conn)
		g.connMu.Unlock()
		conn.Close()
	}()

	maxFrame := uint32(g.maxBody + frameOverhead)
	var hdr [4]byte
	// Per-connection reused buffers: the steady-state invoke path reads
	// into rbuf, builds the response in wbuf, and allocates nothing.
	rbuf := make([]byte, 0, 4096)
	wbuf := make([]byte, 0, 4096)
	// The deadline is armed only here, about to wait for a frame, and it
	// covers the whole exchange, reads and the write: header and body must
	// arrive, and the reply be taken, within idle of the arming — a peer that
	// stopped reading parks this goroutine in conn.Write until then, not for
	// good. Setting a deadline moves a timer, so a busy connection re-arms
	// every idle/60 (once a second) rather than per request — the hot loop
	// pays one clock read — and an idle one is closed idle/60 early at most.
	idle := g.binaryIdle
	var armed time.Time
	for {
		if now := time.Now(); now.Sub(armed) >= idle/60 {
			if err := conn.SetDeadline(now.Add(idle)); err != nil {
				return err
			}
			armed = now
		}
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n == 0 || n > maxFrame {
			// The stream offset is untrustworthy past a bogus length:
			// answer and close.
			wbuf = appendError(wbuf[:0], CodeBadFrame, 0, "bad frame length")
			_, _ = conn.Write(wbuf)
			return errors.New("gateway: bad frame length")
		}
		if cap(rbuf) < int(n) {
			rbuf = make([]byte, n)
		}
		rbuf = rbuf[:n]
		if _, err := io.ReadFull(conn, rbuf); err != nil {
			return err
		}
		var settle *route
		switch rbuf[0] {
		case opResolve:
			wbuf = g.binResolve(wbuf[:0], rbuf[1:])
		case opInvoke:
			wbuf, settle = g.binInvoke(wbuf[:0], rbuf[1:])
		default:
			wbuf = appendError(wbuf[:0], CodeBadOp, 0, "unknown op")
		}
		// The reply goes out before the restore, and with no deployment lock
		// held: a peer that never reads stalls only this connection, and the
		// deployment's next request settles the cleanup in this one's place.
		_, err := conn.Write(wbuf)
		if settle != nil {
			settle.h.Settle()
		}
		if err != nil {
			return err
		}
	}
}

// appendError builds an error frame in b. msg is clipped to the u16 length
// field: an error quoting a long function name back must not outgrow it.
func appendError(b []byte, code byte, retrySecs uint16, msg string) []byte {
	msg = msg[:min(len(msg), math.MaxUint16)]
	b = binary.BigEndian.AppendUint32(b, uint32(1+1+2+2+len(msg)))
	b = append(b, opError, code)
	b = binary.BigEndian.AppendUint16(b, retrySecs)
	b = binary.BigEndian.AppendUint16(b, uint16(len(msg)))
	return append(b, msg...)
}

// binResolve answers a resolve frame: fn name + mode -> route ID.
func (g *Gateway) binResolve(b, p []byte) []byte {
	if len(p) < 3 {
		return appendError(b, CodeBadFrame, 0, "short resolve payload")
	}
	mi := ghModeIdx
	if p[0] != modeDefault {
		mi = int(p[0])
		if mi >= len(isolation.Modes) {
			return appendError(b, CodeUnknown, 0, "unknown mode index")
		}
	}
	fnLen := int(binary.BigEndian.Uint16(p[1:3]))
	if len(p) != 3+fnLen {
		return appendError(b, CodeBadFrame, 0, "resolve length mismatch")
	}
	rt, err := g.route(string(p[3:]), mi)
	if err != nil {
		return appendError(b, CodeUnknown, 0, err.Error())
	}
	b = binary.BigEndian.AppendUint32(b, 1+4)
	b = append(b, opResolve)
	return binary.BigEndian.AppendUint32(b, rt.id)
}

// binInvoke answers an invoke frame — the binary hot path — and returns the
// route whose pending cleanup the caller settles once the reply is written
// (nil unless the invoke was served). With a cached route ID and empty
// caller it allocates nothing in steady state.
func (g *Gateway) binInvoke(b, p []byte) ([]byte, *route) {
	if len(p) < 5 {
		return appendError(b, CodeBadFrame, 0, "short invoke payload"), nil
	}
	id := binary.BigEndian.Uint32(p[:4])
	callerLen := int(p[4])
	if len(p) < 5+callerLen {
		return appendError(b, CodeBadFrame, 0, "invoke length mismatch"), nil
	}
	body := p[5+callerLen:]
	rt := g.routeByID(id)
	if rt == nil {
		return appendError(b, CodeUnknown, 0, "unknown route id"), nil
	}

	select {
	case rt.slots <- struct{}{}:
	default:
		g.rejected.Add(1)
		return appendError(b, CodeQueueFull, retrySecsU16(rt), "deployment queue full"), nil
	}
	caller := ""
	if callerLen > 0 {
		caller = string(p[5 : 5+callerLen])
	}
	st, err := rt.h.Invoke(caller)
	<-rt.slots
	if err != nil {
		switch {
		case errors.Is(err, server.ErrGone):
			g.dropRoute(rt)
			return appendError(b, CodeGone, 0, err.Error()), nil
		case faas.IsTransient(err):
			return appendError(b, CodeTransient, retrySecsU16(rt), err.Error()), nil
		default:
			return appendError(b, CodeInternal, 0, err.Error()), nil
		}
	}
	g.served.Add(1)

	b = binary.BigEndian.AppendUint32(b, uint32(1+8+8+1+len(body)))
	b = append(b, opInvoke)
	b = binary.BigEndian.AppendUint64(b, uint64(st.E2E)/1000)
	b = binary.BigEndian.AppendUint64(b, uint64(st.Invoker)/1000)
	var flags byte
	if st.RolledBack {
		flags |= flagRestored
	}
	b = append(b, flags)
	return append(b, body...), rt
}

// retrySecsU16 clamps a route's Retry-After to the error frame's u16 field.
func retrySecsU16(rt *route) uint16 {
	return uint16(min(rt.retrySecs(), math.MaxUint16))
}
