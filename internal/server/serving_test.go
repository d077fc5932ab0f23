package server

import (
	"bufio"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"msqueue/internal/core"
	"msqueue/internal/metrics"
	"msqueue/internal/wire"
)

// countingConn counts the Read and Write calls that reach a connection:
// each is one read(2) or write(2) on a real socket.
type countingConn struct {
	net.Conn
	reads, writes atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestFlushBeforeBlockingRead pins the flush rule: answers may wait in
// the write buffer only while the next frame is wholly buffered. A peer
// that sends frame A and half of frame B, then waits for A's answer
// before sending the rest, must get that answer — a loop that flushes
// only when its read buffer is empty would block on B's tail while A's
// answer sat unflushed, and both sides would wait forever.
func TestFlushBeforeBlockingRead(t *testing.T) {
	s := New(Config{Queue: core.NewMS[int]()})
	clientEnd, srvEnd := net.Pipe()
	defer clientEnd.Close()
	go s.ServeConn(srvEnd)

	a := wire.Append(nil, wire.EnqFrame(1, 10))
	b := wire.Append(nil, wire.EnqFrame(2, 20))
	if _, err := clientEnd.Write(append(a, b[:len(b)/2]...)); err != nil {
		t.Fatal(err)
	}
	clientEnd.SetReadDeadline(time.Now().Add(2 * time.Second))
	resp, _, err := wire.Read(clientEnd, nil)
	if err != nil {
		t.Fatalf("no answer to frame A while frame B is incomplete: %v (the server must flush before a read that can block)", err)
	}
	if resp.Type != wire.Ack || resp.ID != 1 {
		t.Fatalf("answer to A = %v id %d, want ACK id 1", resp.Type, resp.ID)
	}

	clientEnd.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := clientEnd.Write(b[len(b)/2:]); err != nil {
		t.Fatal(err)
	}
	if resp, _, err = wire.Read(clientEnd, nil); err != nil || resp.Type != wire.Ack || resp.ID != 2 {
		t.Fatalf("answer to B = %v id %d, %v; want ACK id 2", resp.Type, resp.ID, err)
	}
}

// TestPipelinedBurstSyscalls: 64 ENQ frames arriving in one write are
// taken in with one Read and answered with one Write; the only other
// Read is the one that sees the peer hang up.
func TestPipelinedBurstSyscalls(t *testing.T) {
	const frames = 64
	s := New(Config{Queue: core.NewMS[int]()})
	clientEnd, srvEnd := net.Pipe()
	cc := &countingConn{Conn: srvEnd}
	done := make(chan struct{})
	go func() { s.ServeConn(cc); close(done) }()

	var burst []byte
	for i := 1; i <= frames; i++ {
		burst = wire.Append(burst, wire.EnqFrame(uint64(i), int64(i)))
	}
	// net.Pipe is synchronous: the answers must be read while they are
	// written.
	acked := make(chan error, 1)
	go func() {
		br := bufio.NewReader(clientEnd)
		var buf []byte
		for i := 1; i <= frames; i++ {
			f, nb, err := wire.Read(br, buf)
			buf = nb
			if err == nil && (f.Type != wire.Ack || f.ID != uint64(i)) {
				err = fmt.Errorf("answer %d = %v id %d, want ACK id %d", i, f.Type, f.ID, i)
			}
			if err != nil {
				acked <- err
				return
			}
		}
		acked <- nil
	}()
	if _, err := clientEnd.Write(burst); err != nil {
		t.Fatal(err)
	}
	if err := <-acked; err != nil {
		t.Fatal(err)
	}
	clientEnd.Close()
	<-done

	if r := cc.reads.Load(); r > 2 {
		t.Errorf("server made %d Read calls for %d pipelined frames, want <= 2", r, frames)
	}
	if w := cc.writes.Load(); w > 2 {
		t.Errorf("server made %d Write calls for %d pipelined frames, want <= 2", w, frames)
	}
}

// TestPairAllocations: serving an ENQ and a DEQ allocates nothing beyond
// the queue's own node. The peer's side of the test encodes and decodes
// into reused buffers, so every allocation counted is the server's.
func TestPairAllocations(t *testing.T) {
	s := New(Config{Queue: core.NewMS[int](), Probe: metrics.NewProbe()})
	clientEnd, srvEnd := net.Pipe()
	defer clientEnd.Close()
	go s.ServeConn(srvEnd)

	br := bufio.NewReader(clientEnd)
	out := make([]byte, 0, 64)
	in := make([]byte, 64)
	value := wire.AppendValue(nil, 42)
	call := func(f wire.Frame, want wire.Type) {
		out = wire.Append(out[:0], f)
		if _, err := clientEnd.Write(out); err != nil {
			t.Fatal(err)
		}
		resp, buf, err := wire.Read(br, in)
		in = buf
		if err != nil || resp.Type != want {
			t.Fatalf("answer = %v, %v; want %v", resp.Type, err, want)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		call(wire.Frame{Type: wire.Enq, ID: 1, Payload: value}, wire.Ack)
		call(wire.Frame{Type: wire.Deq, ID: 2}, wire.Value)
	})
	if allocs > 1 {
		t.Fatalf("an ENQ+DEQ pair allocates %.1f times, want at most 1 (the MS queue's node)", allocs)
	}
}
