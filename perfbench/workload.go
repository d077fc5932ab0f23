package main

import (
	"fmt"
	"net"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"msqueue/internal/client"
	"msqueue/internal/cliutil"
	"msqueue/internal/metrics"
	"msqueue/internal/queue"
	"msqueue/internal/server"
	"msqueue/internal/telemetry"
	"msqueue/internal/wire"
)

// workload is one traffic mix. Every workload is a closed loop: each of
// the callers sends its next call only after the previous one returned.
type workload struct {
	name     string
	algo     string // catalog name of the queue
	capacity int    // for bounded queues; 0 = unbounded
	network  bool   // served over loopback TCP, or called in process
	batch    int    // values per call: 1 = Enqueue/Dequeue, more = the batch calls
	backlog  int    // values loaded during set-up and held for the whole run
}

// callers is how many closed-loop callers every workload runs: one per CPU
// of the 2-vCPU hosts the benchmark was tuned on.
const callers = 2

var workloads = []workload{
	{name: "rpc-pairs", algo: "ms", network: true, batch: 1, backlog: 65536},
	{name: "rpc-batch", algo: "ring", capacity: 65536, network: true, batch: 256, backlog: 32768},
	{name: "inproc-backlog", algo: "ms", batch: 1, backlog: 1 << 20},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

const (
	// inprocSampleEvery spaces the timed pairs on inproc-backlog: a clock
	// read costs a fair share of an in-process queue call, so timing every
	// pair would slow the loop it measures.
	inprocSampleEvery = 64
	// drainChunk is how many values one drain call asks for.
	drainChunk = 4096
)

// options are the settings of one session.
type options struct {
	seed    int64
	warmup  time.Duration
	seconds time.Duration
	setups  int
	traced  bool
	// wrap, when set, decorates the queue before it is served; the tests
	// use it to plant faulty queues under the correctness check.
	wrap func(queue.Queue[int]) queue.Queue[int]
}

// endpoint is how a caller reaches the queue: through a client on the
// network workloads, directly on inproc-backlog.
type endpoint interface {
	enqueue(vs []int) (int, error)
	dequeue(dst []int) (int, error)
}

type pairEndpoint struct{ c *client.Client }

func (e pairEndpoint) enqueue(vs []int) (int, error) {
	if err := e.c.Enqueue(vs[0]); err != nil {
		return 0, err
	}
	return 1, nil
}

func (e pairEndpoint) dequeue(dst []int) (int, error) {
	v, ok, err := e.c.Dequeue()
	if !ok || err != nil {
		return 0, err
	}
	dst[0] = v
	return 1, nil
}

type batchEndpoint struct{ c *client.Client }

func (e batchEndpoint) enqueue(vs []int) (int, error)  { return e.c.EnqueueBatch(vs) }
func (e batchEndpoint) dequeue(dst []int) (int, error) { return e.c.DequeueBatch(dst) }

type localEndpoint struct{ q queue.Queue[int] }

func (e localEndpoint) enqueue(vs []int) (int, error) {
	e.q.Enqueue(vs[0])
	return 1, nil
}

func (e localEndpoint) dequeue(dst []int) (int, error) {
	v, ok := e.q.Dequeue()
	if !ok {
		return 0, nil
	}
	dst[0] = v
	return 1, nil
}

// env is one set-up system: the queue, and for the network workloads the
// server and one client per caller.
type env struct {
	w       workload
	q       queue.Queue[int] // as served, decorated when traced
	probe   *metrics.Probe
	srv     *server.Server
	served  chan struct{} // closed when Serve returns
	clients []*client.Client
	eps     []endpoint
	ledgers []producerLedger // index 0 is the preload, then one per caller

	// Set only when traced.
	gate      atomic.Bool
	timer     *queueTimer
	srvConns  *connCounts
	cliConns  *connCounts
	residence *samples
	callConns []atomic.Pointer[tracedConn] // the connection each caller's client dialled
}

// setup builds the system and loads its backlog: everything setup_s
// measures.
func setup(w workload, opt options) (*env, error) {
	info, err := cliutil.SelectOne(w.algo)
	if err != nil {
		return nil, err
	}
	e := &env{w: w, ledgers: make([]producerLedger, callers+1)}
	for p := range e.ledgers {
		e.ledgers[p].base = firstSeq(opt.seed, p)
	}
	e.q = info.New(w.capacity)
	if opt.wrap != nil {
		e.q = opt.wrap(e.q)
	}
	if opt.traced {
		e.q, e.timer = timeQueue(e.q, &e.gate)
	}
	// The probe is attached and handed to the server the way qserve -admin
	// does, so observability costs are paid on the measured path.
	e.probe = metrics.NewProbe()
	if inst, ok := e.q.(metrics.Instrumented); ok {
		inst.SetProbe(e.probe)
	}
	if !w.network {
		for i := 0; i < callers; i++ {
			e.eps = append(e.eps, localEndpoint{e.q})
		}
		v := make([]int, 1)
		for i := 0; i < w.backlog; i++ {
			e.ledgers[0].fill(0, v)
			e.q.Enqueue(v[0])
			e.ledgers[0].ack(0, 1)
		}
		return e, nil
	}

	e.srv = server.New(server.Config{
		Queue:  e.q,
		Probe:  e.probe,
		Events: telemetry.NewRecorder(telemetry.DefaultRecorderSize),
	})
	var ln net.Listener
	ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	if opt.traced {
		e.srvConns, e.cliConns = new(connCounts), new(connCounts)
		e.residence = newSamples(sampleCap, &e.gate)
		ln = tracedListener{Listener: ln, counts: e.srvConns, residence: e.residence}
		e.callConns = make([]atomic.Pointer[tracedConn], callers)
	}
	e.served = make(chan struct{})
	go func() {
		defer close(e.served)
		e.srv.Serve(ln)
	}()
	for i := 0; i < callers; i++ {
		cfg := client.Config{Addr: addr}
		if opt.traced {
			slot := &e.callConns[i]
			cfg.Dial = func() (net.Conn, error) {
				c, err := net.Dial("tcp", addr)
				if err != nil {
					return nil, err
				}
				tc := &tracedConn{Conn: c, counts: e.cliConns}
				slot.Store(tc)
				return tc, nil
			}
		}
		c := client.New(cfg)
		e.clients = append(e.clients, c)
		if err := c.Ping(); err != nil {
			e.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		if w.batch > 1 {
			e.eps = append(e.eps, batchEndpoint{c})
		} else {
			e.eps = append(e.eps, pairEndpoint{c})
		}
	}
	vs := make([]int, drainChunk)
	for left := w.backlog; left > 0; {
		chunk := vs[:min(left, len(vs))]
		e.ledgers[0].fill(0, chunk)
		n, err := e.clients[0].EnqueueBatch(chunk)
		e.ledgers[0].ack(0, n)
		if err != nil || n != len(chunk) {
			e.close()
			return nil, fmt.Errorf("preload: %d of %d accepted: %v", n, len(chunk), err)
		}
		left -= n
	}
	return e, nil
}

// firstSeq is producer p's first sequence number: the seed decides where
// each producer's stream starts, and so every value the queue carries.
func firstSeq(seed int64, p int) uint64 {
	return mix(uint64(seed)*0x9e3779b97f4a7c15+uint64(p)) & (1<<(seqBits-8) - 1)
}

func (e *env) close() {
	for _, c := range e.clients {
		c.Close()
	}
	if e.srv != nil {
		e.srv.Close()
		<-e.served
	}
}

// drain takes every value left in the queue and shows it to view.
func (e *env) drain(view *consumerView) error {
	dst := make([]int, drainChunk)
	for {
		var n int
		if e.w.network {
			var err error
			if n, err = e.clients[0].DequeueBatch(dst); err != nil {
				return err
			}
		} else {
			for n < len(dst) {
				v, ok := e.q.Dequeue()
				if !ok {
					break
				}
				dst[n] = v
				n++
			}
		}
		if n == 0 {
			return nil
		}
		for _, v := range dst[:n] {
			view.see(v)
		}
	}
}

// The measured window is cut into slices of about a second. Rates and
// quantiles are taken per slice and reported as the median over slices,
// so a burst of interference on the host moves one slice, not the figure.
const sliceLength = time.Second

// memoryEvery spaces the samples of held memory taken while the window is
// open; rss_mb is their median.
const memoryEvery = 50 * time.Millisecond

// sliceSamples is how many timed calls each caller keeps per slice: enough
// that a slice's p99 rests on well over ten calls beyond it.
const sliceSamples = 1 << 14

// phase values: 0 while warming up, k while measuring slice k (1-based),
// stopping once the window has closed.
const stopping = -1

// tally is what one caller did in one slice.
type tally struct {
	calls, elems, attempted, failed int64
	lat                             *samples // the slice's timed calls
}

func (t *tally) plus(u tally) {
	t.calls += u.calls
	t.elems += u.elems
	t.attempted += u.attempted
	t.failed += u.failed
}

// caller is one closed-loop caller: producer id's stream in, whatever the
// queue hands back out.
type caller struct {
	id     int // producer id, 1-based
	ep     endpoint
	ledger *producerLedger
	view   *consumerView
	slices []tally // indexed by phase; slices[0] (warm-up) stays empty
	// span is, when traced, each call's wait from its request write to
	// its response read; self is the round trip minus that span.
	span, self *samples
}

// run loops enqueue-then-dequeue until the window closes. Over the network
// every call is timed. In process one pair in inprocSampleEvery is timed, as
// a whole: on their own, enqueues (which allocate a node) and dequeues form
// two modes about 50 ns apart, and the median of all calls falls in the gap
// between them, where it moved by a fifth from run to run.
func (c *caller) run(phase *atomic.Int32, w workload, conn *atomic.Pointer[tracedConn]) {
	every, pairs := 1, !w.network
	if pairs {
		every = inprocSampleEvery
	}
	vs := make([]int, w.batch)
	dst := make([]int, w.batch)
	for i := 0; phase.Load() != stopping; i++ {
		c.ledger.fill(c.id, vs)
		timed := i%every == 0
		var start int64 // the clock is read only for timed calls
		if timed {
			start = nanotime()
		}
		n, err := c.ep.enqueue(vs)
		c.ledger.ack(c.id, n)
		c.finish(phase, start, timed && !pairs, n, err != nil || n != len(vs), conn)

		if !pairs {
			start = nanotime()
		}
		n, err = c.ep.dequeue(dst)
		for _, v := range dst[:n] {
			c.view.see(v)
		}
		// The backlog never runs out, so an empty dequeue is a failure.
		c.finish(phase, start, timed, n, err != nil || n == 0, conn)
	}
}

// finish accounts one call that started at start to the slice it
// completed in, if it completed inside the measured window.
func (c *caller) finish(phase *atomic.Int32, start int64, timed bool, n int, failed bool, conn *atomic.Pointer[tracedConn]) {
	ph := phase.Load()
	if ph <= 0 {
		return
	}
	t := &c.slices[ph]
	if timed {
		rtt := nanotime() - start
		t.lat.add(rtt)
		if tc := conn.Load(); tc != nil {
			span := tc.lastRead.Load() - tc.lastWrite.Load()
			c.span.add(span)
			c.self.add(rtt - span)
		}
	}
	t.attempted++
	if failed {
		t.failed++
		return
	}
	t.calls++
	t.elems += int64(n)
}

// window is what the process had used at one slice boundary.
type window struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	probe   metrics.Snapshot
	srv     wire.Counters
	srvConn connTotals
	cliConn connTotals
	gc      gcSample
}

func takeWindow(e *env, gc gcReader) window {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w := window{at: time.Now(), cpu: cpuTime(), mallocs: ms.Mallocs, probe: e.probe.Snapshot(), gc: gc.read()}
	if e.srv != nil {
		w.srv = e.srv.Counters()
	}
	if e.srvConns != nil {
		w.srvConn, w.cliConn = e.srvConns.totals(), e.cliConns.totals()
	}
	return w
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// session is one measured run of a workload: its set-up, its window and
// its verdict.
type session struct {
	w          workload
	e          *env
	setups     []float64 // seconds each set-up took
	callers    []*caller
	windows    []window // windows[k-1] and windows[k] bound slice k
	held       []float64
	violations uint64
	problems   []string
}

// runSession sets the workload up opt.setups times (keeping the last),
// warms it up, measures it for opt.seconds, drains it and checks every
// value.
func runSession(w workload, opt options) (*session, error) {
	s := &session{w: w}
	for i := 0; i < max(opt.setups, 1); i++ {
		if s.e != nil {
			s.e.close()
			s.e = nil
		}
		runtime.GC() // each set-up starts from the same heap, not the last one's garbage
		t0 := time.Now()
		e, err := setup(w, opt)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		s.setups = append(s.setups, time.Since(t0).Seconds())
		s.e = e
	}
	defer s.e.close()
	// Set-up's garbage goes back to the OS before the window opens, so the
	// memory figure is what the running system holds, not how far the
	// heap overshot while the backlog was loaded.
	debug.FreeOSMemory()

	nslices := max(1, int((opt.seconds+sliceLength/2)/sliceLength))
	var phase atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		c := &caller{
			id:     i + 1,
			ep:     s.e.eps[i],
			ledger: &s.e.ledgers[i+1],
			view:   newConsumerView(callers + 1),
			slices: make([]tally, nslices+1),
		}
		for k := range c.slices {
			c.slices[k].lat = newSamples(sliceSamples, nil)
		}
		var conn *atomic.Pointer[tracedConn]
		if s.e.callConns != nil {
			conn = &s.e.callConns[i]
			c.span, c.self = newSamples(sampleCap, nil), newSamples(sampleCap, nil)
		} else {
			conn = new(atomic.Pointer[tracedConn])
		}
		s.callers = append(s.callers, c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(&phase, w, conn)
		}()
	}
	gc := newGCReader()
	s.held = make([]float64, 0, int(opt.seconds/memoryEvery)+1)
	time.Sleep(opt.warmup)
	s.windows = append(s.windows, takeWindow(s.e, gc))
	open := s.windows[0].at
	s.e.gate.Store(true)
	phase.Store(1)
	for k := 1; k <= nslices; k++ {
		end := open.Add(opt.seconds * time.Duration(k) / time.Duration(nslices))
		for time.Until(end) > memoryEvery {
			time.Sleep(memoryEvery)
			if len(s.held) < cap(s.held) {
				s.held = append(s.held, float64(gc.read().held))
			}
		}
		time.Sleep(time.Until(end))
		if k < nslices {
			phase.Store(int32(k + 1))
		} else {
			phase.Store(stopping)
			s.e.gate.Store(false)
		}
		s.windows = append(s.windows, takeWindow(s.e, gc))
	}
	if len(s.held) == 0 {
		s.held = append(s.held, float64(s.last().gc.held))
	}
	wg.Wait()

	drainer := newConsumerView(callers + 1)
	if err := s.e.drain(drainer); err != nil {
		return nil, fmt.Errorf("%s drain: %w", w.name, err)
	}
	views := []*consumerView{drainer}
	for _, c := range s.callers {
		views = append(views, c.view)
	}
	s.violations, s.problems = verdict(s.e.ledgers, views)
	for _, c := range s.e.clients {
		s.violations += uint64(c.Resends()) // a resend may have applied a call twice
	}
	return s, nil
}

// first and last are the window's opening and closing boundaries.
func (s *session) first() window { return s.windows[0] }
func (s *session) last() window  { return s.windows[len(s.windows)-1] }

func (s *session) seconds() float64 { return s.last().at.Sub(s.first().at).Seconds() }

// slice sums what every caller did in slice k; k = 0 sums the whole
// window.
func (s *session) slice(k int) tally {
	var t tally
	for _, c := range s.callers {
		for i := range c.slices {
			if k == 0 || i == k {
				t.plus(c.slices[i])
			}
		}
	}
	return t
}

// sliceLatency returns the qs-quantiles, in ns, of the calls timed in
// slice k.
func (s *session) sliceLatency(k int, qs ...float64) []float64 {
	var all []uint32
	for _, c := range s.callers {
		all = append(all, c.slices[k].lat.kept()...)
	}
	return quantilesOf(all, qs...)
}

// totals are the whole window's calls, with checker violations counted
// as failed calls.
func (s *session) totals() (calls, elems, attempted, failed int64) {
	t := s.slice(0)
	return t.calls, t.elems, t.attempted, t.failed + int64(s.violations)
}
