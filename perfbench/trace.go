package main

import (
	"net"
	"slices"
	"sync/atomic"
	"time"

	"msqueue/internal/metrics"
	"msqueue/internal/queue"
)

var clockBase = time.Now()

// nanotime is a monotonic clock in nanoseconds: cheap next to a round trip
// over the network, but not next to an in-process queue call.
func nanotime() int64 { return int64(time.Since(clockBase)) }

// samples keeps a uniform sample of up to size of the durations added to
// it, in a buffer allocated once outside the heap, so recording allocates
// nothing; n and sum count them all. Any number of goroutines may add.
// Nothing is recorded while the gate, if there is one, is closed, which
// keeps warm-up out of every figure.
type samples struct {
	gate *atomic.Bool
	n    atomic.Int64
	sum  atomic.Int64
	buf  []atomic.Uint32
	mem  *mapping
}

// sampleCap bounds the traced run's buffers, so the benchmark's own memory
// stays small next to the system it measures.
const sampleCap = 1 << 16

func newSamples(size int, gate *atomic.Bool) *samples {
	s := &samples{gate: gate}
	s.buf, s.mem = offHeap(size)
	return s
}

func (s *samples) add(ns int64) {
	if s.gate != nil && !s.gate.Load() {
		return
	}
	i := uint64(s.n.Add(1) - 1)
	s.sum.Add(ns)
	// Algorithm R, with a hash of the duration's index standing in for the
	// random draw: the buffer samples the whole window, not its last calls.
	if i >= uint64(len(s.buf)) {
		if i = mix(i) % (i + 1); i >= uint64(len(s.buf)) {
			return
		}
	}
	s.buf[i].Store(uint32(min(max(ns, 0), 1<<32-1)))
}

// kept returns the recorded durations. Call it only after every writer has
// stopped.
func (s *samples) kept() []uint32 {
	kept := make([]uint32, min(s.n.Load(), int64(len(s.buf))))
	for i := range kept {
		kept[i] = s.buf[i].Load()
	}
	return kept
}

// quantiles returns the q-quantiles of the durations in sets, in ns.
func quantiles(sets []*samples, qs ...float64) []float64 {
	var all []uint32
	for _, s := range sets {
		all = append(all, s.kept()...)
	}
	return quantilesOf(all, qs...)
}

// quantilesOf returns the q-quantiles of all, sorting it in place. Each is
// the mean of the values ranked within half a percent of q: the clock
// counts whole nanoseconds, and a plain order statistic of calls that take
// tens of nanoseconds would move in whole steps.
func quantilesOf(all []uint32, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(all) == 0 {
		return out
	}
	slices.Sort(all)
	half := len(all) / 200
	for i, q := range qs {
		r := min(int(q*float64(len(all))), len(all)-1)
		band := all[max(r-half, 0) : min(r+half, len(all)-1)+1]
		var sum float64
		for _, v := range band {
			sum += float64(v)
		}
		out[i] = sum / float64(len(band))
	}
	return out
}

// queueTimer times every call made into a queue: by the server's
// connection goroutines on the network workloads, by the callers
// themselves on inproc-backlog.
type queueTimer struct {
	q queue.Queue[int]
	// enq and deq time single-value calls; the batch counters time
	// EnqueueBatch and DequeueBatch per element moved.
	enq, deq                  *samples
	enqBatchNs, enqBatchElems atomic.Int64
	deqBatchNs, deqBatchElems atomic.Int64
	busyNs                    atomic.Int64 // every call, while the gate is open
	gate                      *atomic.Bool
}

func (t *queueTimer) done(start int64, s *samples) {
	d := nanotime() - start
	s.add(d)
	if t.gate.Load() {
		t.busyNs.Add(d)
	}
}

func (t *queueTimer) Enqueue(v int) {
	start := nanotime()
	t.q.Enqueue(v)
	t.done(start, t.enq)
}

func (t *queueTimer) Dequeue() (int, bool) {
	start := nanotime()
	v, ok := t.q.Dequeue()
	t.done(start, t.deq)
	return v, ok
}

// SetProbe forwards metrics.Instrumented, so attaching the probe to the
// decorated queue reaches the queue's own retry sites.
func (t *queueTimer) SetProbe(p *metrics.Probe) {
	if in, ok := t.q.(metrics.Instrumented); ok {
		in.SetProbe(p)
	}
}

type timedTry struct{ t *queueTimer }

func (b timedTry) TryEnqueue(v int) bool {
	start := nanotime()
	ok := b.t.q.(queue.Bounded[int]).TryEnqueue(v)
	b.t.done(start, b.t.enq)
	return ok
}

type timedBatch struct{ t *queueTimer }

func (b timedBatch) EnqueueBatch(vs []int) int {
	start := nanotime()
	n := b.t.q.(queue.Batcher[int]).EnqueueBatch(vs)
	b.t.batchDone(start, n, &b.t.enqBatchNs, &b.t.enqBatchElems)
	return n
}

func (b timedBatch) DequeueBatch(dst []int) int {
	start := nanotime()
	n := b.t.q.(queue.Batcher[int]).DequeueBatch(dst)
	b.t.batchDone(start, n, &b.t.deqBatchNs, &b.t.deqBatchElems)
	return n
}

func (t *queueTimer) batchDone(start int64, n int, ns, elems *atomic.Int64) {
	if !t.gate.Load() {
		return
	}
	d := nanotime() - start
	ns.Add(d)
	elems.Add(int64(n))
	t.busyNs.Add(d)
}

// timeQueue decorates q with a queueTimer that has exactly q's optional
// interfaces. server.New picks its RETRY and batch paths by type assertion,
// so a decorator that hid queue.Bounded or queue.Batcher would make the
// traced server a different program from the one it measures.
func timeQueue(q queue.Queue[int], gate *atomic.Bool) (queue.Queue[int], *queueTimer) {
	t := &queueTimer{q: q, enq: newSamples(sampleCap, gate), deq: newSamples(sampleCap, gate), gate: gate}
	_, bounded := q.(queue.Bounded[int])
	_, batcher := q.(queue.Batcher[int])
	switch {
	case bounded && batcher:
		return struct {
			*queueTimer
			timedTry
			timedBatch
		}{t, timedTry{t}, timedBatch{t}}, t
	case bounded:
		return struct {
			*queueTimer
			timedTry
		}{t, timedTry{t}}, t
	case batcher:
		return struct {
			*queueTimer
			timedBatch
		}{t, timedBatch{t}}, t
	default:
		return t, t
	}
}

// connCounts tallies the calls and bytes that cross a set of connections.
type connCounts struct {
	reads, writes, bytes atomic.Int64
}

type connTotals struct{ reads, writes, bytes int64 }

func (c *connCounts) totals() connTotals {
	return connTotals{c.reads.Load(), c.writes.Load(), c.bytes.Load()}
}

func (a connTotals) minus(b connTotals) connTotals {
	return connTotals{a.reads - b.reads, a.writes - b.writes, a.bytes - b.bytes}
}

// tracedConn passes every byte through unchanged and records when reads
// return and writes start. With one request in flight per connection (the
// closed loop), the server's residence for a request is the time from the
// read that completed it to the start of the response's write, and the
// client's wait is the time from its request's write to the read that
// completed the response.
type tracedConn struct {
	net.Conn
	counts    *connCounts
	residence *samples // server side only
	lastRead  atomic.Int64
	lastWrite atomic.Int64
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.lastRead.Store(nanotime())
	c.counts.reads.Add(1)
	c.counts.bytes.Add(int64(n))
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	now := nanotime()
	if c.residence != nil {
		c.residence.add(now - c.lastRead.Load())
	}
	c.lastWrite.Store(now)
	n, err := c.Conn.Write(p)
	c.counts.writes.Add(1)
	c.counts.bytes.Add(int64(n))
	return n, err
}

// tracedListener wraps every accepted connection in a tracedConn.
type tracedListener struct {
	net.Listener
	counts    *connCounts
	residence *samples
}

func (l tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, counts: l.counts, residence: l.residence}, nil
}
