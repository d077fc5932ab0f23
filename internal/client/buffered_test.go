package client

import (
	"bufio"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"msqueue/internal/core"
	"msqueue/internal/server"
	"msqueue/internal/wire"
)

// readCountingConn counts the Read calls that reach a connection: each
// is one read(2) on a real socket.
type readCountingConn struct {
	net.Conn
	reads atomic.Int64
}

func (c *readCountingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

// TestPipelinedResponsesOneRead: 64 responses arriving in one write are
// taken in with one Read; the only other Read is the one that sees the
// connection close.
func TestPipelinedResponsesOneRead(t *testing.T) {
	const ops = 64
	clientEnd, srvEnd := net.Pipe()
	cc := &readCountingConn{Conn: clientEnd}
	c := New(Config{Dial: func() (net.Conn, error) { return cc, nil }, MaxReconnects: 1})

	// A scripted server collects all 64 requests, then answers them in a
	// single write.
	go func() {
		br := bufio.NewReader(srvEnd)
		var buf, answers []byte
		for i := 0; i < ops; i++ {
			f, nb, err := wire.Read(br, buf)
			buf = nb
			if err != nil {
				return
			}
			answers = wire.Append(answers, wire.AckFrame(f.ID))
		}
		srvEnd.Write(answers)
	}()

	var wg sync.WaitGroup
	for i := 0; i < ops; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.Enqueue(i); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	c.Close()
	srvEnd.Close()
	// Close has failed the handle; the reader's last Read has returned or
	// is returning. Either way at most two Reads reached the connection.
	if r := cc.reads.Load(); r > 2 {
		t.Fatalf("client made %d Read calls for %d pipelined responses, want <= 2", r, ops)
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestClientPairAllocations: an Enqueue+Dequeue pair through the client
// and a server allocates nothing beyond the queue's own node — no
// response channel, no payload copy, no frame buffer per call.
func TestClientPairAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items on purpose under the race detector")
	}
	s := server.New(server.Config{Queue: core.NewMS[int]()})
	defer s.Close()
	c := New(Config{Dial: func() (net.Conn, error) {
		clientEnd, srvEnd := net.Pipe()
		go s.ServeConn(srvEnd)
		return clientEnd, nil
	}})
	defer c.Close()
	if err := c.Ping(); err != nil { // dial outside the measurement
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := c.Enqueue(7); err != nil {
			t.Fatal(err)
		}
		if v, ok, err := c.Dequeue(); err != nil || !ok || v != 7 {
			t.Fatalf("Dequeue = %d, %v, %v; want 7, true, nil", v, ok, err)
		}
	})
	if allocs > 1 {
		t.Fatalf("an Enqueue+Dequeue pair allocates %.1f times, want at most 1 (the MS queue's node)", allocs)
	}
}
