package gateway

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"groundhog/internal/server"
)

// readSizeConn records the largest buffer the server side ever asked the
// connection to fill: ServeBinaryConn reads each frame into one buffer, so
// this is the largest read buffer it allocated.
type readSizeConn struct {
	net.Conn
	maxRead int
}

func (c *readSizeConn) Read(p []byte) (int, error) {
	c.maxRead = max(c.maxRead, len(p))
	return c.Conn.Read(p)
}

// expectedReplies walks data the way the framing rule says a server must:
// one reply per complete frame, and a bad length (zero, or past maxFrame)
// answers once more and ends the conversation. A truncated tail answers
// nothing.
func expectedReplies(data []byte, maxFrame uint32) (replies int, badLength bool) {
	for len(data) >= 4 {
		n := binary.BigEndian.Uint32(data)
		if n == 0 || n > maxFrame {
			return replies + 1, true
		}
		if uint64(len(data)-4) < uint64(n) {
			break
		}
		data = data[4+n:]
		replies++
	}
	return replies, false
}

// FuzzServeBinaryConn feeds arbitrary bytes to the binary frame decoder over
// net.Pipe. Whatever arrives, the server never panics (a panic in its
// goroutine kills the run), never sizes a read buffer past MaxBody +
// frameOverhead, answers every complete frame with exactly one well-formed
// frame, and answers a bad length with CodeBadFrame and a closed connection.
// The seed corpus is testdata/fuzz/FuzzServeBinaryConn; route ID 0 (the
// gateway's first) is live in every run, so the corpus's invokes, and their
// mutations, reach the platform.
func FuzzServeBinaryConn(f *testing.F) {
	const maxBody = 1024
	s := server.New()
	g := New(s, Config{MaxBody: maxBody})
	f.Cleanup(func() {
		_ = g.Close()
		s.Shutdown()
	})
	if rt, err := g.route("get-time (p)", ghModeIdx); err != nil || rt.id != 0 {
		f.Fatalf("pre-resolved route = %+v, %v; want id 0", rt, err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		client, srv := net.Pipe()
		defer client.Close()
		_ = client.SetDeadline(time.Now().Add(10 * time.Second)) // a wedged server fails, not hangs
		sized := &readSizeConn{Conn: srv}
		served := make(chan struct{})
		go func() {
			defer close(served)
			_ = g.ServeBinaryConn(sized)
		}()
		// net.Pipe is unbuffered: the writer runs beside the reply reader.
		// It ends when the server has consumed every byte or closed on it.
		written := make(chan struct{})
		go func() {
			defer close(written)
			_, _ = client.Write(data)
		}()

		replies, badLength := expectedReplies(data, maxBody+frameOverhead)
		var hdr [4]byte
		var lastOp, lastCode byte
		for i := 0; i < replies; i++ {
			if _, err := io.ReadFull(client, hdr[:]); err != nil {
				t.Fatalf("reply %d of %d: %v", i+1, replies, err)
			}
			n := binary.BigEndian.Uint32(hdr[:])
			if n == 0 || n > maxBody+2*frameOverhead { // an invoke reply is its request's body plus 18 bytes
				t.Fatalf("reply %d: length prefix %d", i+1, n)
			}
			p := make([]byte, n)
			if _, err := io.ReadFull(client, p); err != nil {
				t.Fatalf("reply %d: %d-byte payload: %v", i+1, n, err)
			}
			lastOp, lastCode = p[0], 0
			switch op, p := p[0], p[1:]; op {
			case opResolve:
				if len(p) != 4 {
					t.Fatalf("reply %d: resolve reply carries %d bytes, want a u32 route id", i+1, len(p))
				}
			case opInvoke:
				if len(p) < 8+8+1 {
					t.Fatalf("reply %d: invoke reply carries %d bytes, short of its timings and flags", i+1, len(p))
				}
			case opError:
				if len(p) < 5 || len(p) != 5+int(binary.BigEndian.Uint16(p[3:5])) {
					t.Fatalf("reply %d: malformed error frame % x", i+1, p)
				}
				lastCode = p[0]
			default:
				t.Fatalf("reply %d: unknown op %d", i+1, op)
			}
		}
		if badLength {
			if lastOp != opError || lastCode != CodeBadFrame {
				t.Fatalf("bad length answered with op %d code %d, want an error frame with CodeBadFrame", lastOp, lastCode)
			}
			if _, err := client.Read(hdr[:1]); !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrClosedPipe) {
				t.Fatalf("connection still open after a bad length (read err %v)", err)
			}
		}
		<-written
		client.Close()
		<-served
		if sized.maxRead > maxBody+frameOverhead {
			t.Fatalf("server sized a %d-byte read buffer, cap is %d", sized.maxRead, maxBody+frameOverhead)
		}
	})
}
