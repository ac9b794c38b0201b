// BinaryClient: the reference client for the gateway's binary protocol.
// One goroutine per client; the client reuses its frame buffers, so the
// steady-state invoke roundtrip (cached route ID, empty caller) allocates
// nothing on the client side either — the load generator and the alloc
// bench both lean on that.

package gateway

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"

	"groundhog/internal/isolation"
)

// ProtoError is a binary-protocol error frame surfaced as a Go error.
type ProtoError struct {
	Code           byte
	RetryAfterSecs uint16
	Msg            string
}

func (e *ProtoError) Error() string {
	return fmt.Sprintf("gateway protocol error %d: %s", e.Code, e.Msg)
}

// InvokeResult is a successful binary invoke's response. Body aliases the
// client's read buffer and is valid only until the next call.
type InvokeResult struct {
	E2EUs     uint64
	InvokerUs uint64
	// Restored is flags bit0: the container was rolled back since its
	// previous request.
	Restored bool
	Body     []byte
}

// BinaryClient speaks the binary protocol over one connection. Not safe for
// concurrent use; dial one per worker.
type BinaryClient struct {
	conn net.Conn
	rbuf []byte
	wbuf []byte
	hdr  [4]byte
	// protoErr is reused across failed calls so the error path stays
	// allocation-free too once warmed.
	protoErr ProtoError
}

// DialBinary connects a new client to a gateway's binary listener.
func DialBinary(addr string) (*BinaryClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewBinaryClient(conn), nil
}

// NewBinaryClient wraps an existing connection (e.g. one side of a
// net.Pipe served by ServeBinaryConn).
func NewBinaryClient(conn net.Conn) *BinaryClient {
	return &BinaryClient{
		conn: conn,
		rbuf: make([]byte, 0, 4096),
		wbuf: make([]byte, 0, 4096),
	}
}

// Close closes the underlying connection.
func (c *BinaryClient) Close() error { return c.conn.Close() }

// Resolve maps fn × mode to a route ID for Invoke. Mode "" selects the
// default (gh).
func (c *BinaryClient) Resolve(fn string, mode isolation.Mode) (uint32, error) {
	mi := modeDefault
	if mode != "" {
		idx := modeIndex(string(mode))
		if idx < 0 {
			return 0, fmt.Errorf("gateway: unknown mode %q", mode)
		}
		mi = byte(idx)
	}
	c.wbuf = binary.BigEndian.AppendUint32(c.wbuf[:0], uint32(1+1+2+len(fn)))
	c.wbuf = append(c.wbuf, opResolve, mi)
	c.wbuf = binary.BigEndian.AppendUint16(c.wbuf, uint16(len(fn)))
	c.wbuf = append(c.wbuf, fn...)
	if _, err := c.conn.Write(c.wbuf); err != nil {
		return 0, err
	}
	op, p, err := c.readFrame()
	if err != nil {
		return 0, err
	}
	if op != opResolve || len(p) != 4 {
		return 0, c.frameError(op, p)
	}
	return binary.BigEndian.Uint32(p), nil
}

// Invoke runs one request against a resolved route and returns the
// response. Protocol-level failures (queue full, transient, gone) come
// back as *ProtoError.
func (c *BinaryClient) Invoke(id uint32, caller string, body []byte) (InvokeResult, error) {
	c.wbuf = binary.BigEndian.AppendUint32(c.wbuf[:0], uint32(1+4+1+len(caller)+len(body)))
	c.wbuf = append(c.wbuf, opInvoke)
	c.wbuf = binary.BigEndian.AppendUint32(c.wbuf, id)
	c.wbuf = append(c.wbuf, byte(len(caller)))
	c.wbuf = append(c.wbuf, caller...)
	c.wbuf = append(c.wbuf, body...)
	if _, err := c.conn.Write(c.wbuf); err != nil {
		return InvokeResult{}, err
	}
	op, p, err := c.readFrame()
	if err != nil {
		return InvokeResult{}, err
	}
	if op != opInvoke || len(p) < 17 {
		return InvokeResult{}, c.frameError(op, p)
	}
	return InvokeResult{
		E2EUs:     binary.BigEndian.Uint64(p[:8]),
		InvokerUs: binary.BigEndian.Uint64(p[8:16]),
		Restored:  p[16]&flagRestored != 0,
		Body:      p[17:],
	}, nil
}

// readFrame reads one response frame into the reused buffer.
func (c *BinaryClient) readFrame() (op byte, payload []byte, err error) {
	if _, err := io.ReadFull(c.conn, c.hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(c.hdr[:])
	if n == 0 {
		return 0, nil, fmt.Errorf("gateway: zero-length response frame")
	}
	if cap(c.rbuf) < int(n) {
		c.rbuf = make([]byte, n)
	}
	c.rbuf = c.rbuf[:n]
	if _, err := io.ReadFull(c.conn, c.rbuf); err != nil {
		return 0, nil, err
	}
	return c.rbuf[0], c.rbuf[1:], nil
}

// frameError decodes an error frame (or reports a malformed one).
func (c *BinaryClient) frameError(op byte, p []byte) error {
	if op != opError || len(p) < 5 {
		return fmt.Errorf("gateway: unexpected response frame op %d (%d bytes)", op, len(p))
	}
	msgLen := int(binary.BigEndian.Uint16(p[3:5]))
	if len(p) < 5+msgLen {
		msgLen = len(p) - 5
	}
	c.protoErr = ProtoError{
		Code:           p[0],
		RetryAfterSecs: binary.BigEndian.Uint16(p[1:3]),
		Msg:            string(p[5 : 5+msgLen]),
	}
	return &c.protoErr
}
