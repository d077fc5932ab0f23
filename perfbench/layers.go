package main

import (
	"bytes"
	"net"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"

	qmetrics "msqueue/internal/metrics"
	"msqueue/internal/queue"
	"msqueue/internal/wire"
)

// metric is one named figure of a run.
type metric struct {
	name  string
	unit  string
	value float64
}

// endToEnd is what a user of the system sees, from an untraced session.
// Rates, quantiles and costs are per slice, reported as the median over
// the window's slices; allocations are counted over the whole window,
// since they repeat exactly.
func endToEnd(s *session) []metric {
	var ops, elems, p50, p99, cpu []float64
	for k := 1; k < len(s.windows); k++ {
		a, b := s.windows[k-1], s.windows[k]
		t := s.slice(k)
		secs := b.at.Sub(a.at).Seconds()
		ops = append(ops, float64(t.calls)/secs)
		elems = append(elems, float64(t.elems)/secs)
		q := s.sliceLatency(k, 0.50, 0.99)
		p50, p99 = append(p50, q[0]/1e3), append(p99, q[1]/1e3)
		cpu = append(cpu, float64(b.cpu-a.cpu)/float64(t.elems))
	}
	calls, _, _, _ := s.totals()
	return []metric{
		{"throughput_ops_s", "1/s", medianOf(ops)},
		{"throughput_elems_s", "1/s", medianOf(elems)},
		{"latency_p50_us", "us", medianOf(p50)},
		{"latency_p99_us", "us", medianOf(p99)},
		{"cpu_ns_per_elem", "ns", medianOf(cpu)},
		{"allocs_per_op", "count", float64(s.last().mallocs-s.first().mallocs) / float64(calls)},
		{"rss_mb", "MB", medianOf(s.held) / (1 << 20)},
		{"setup_s", "s", medianOf(s.setups)},
	}
}

// latencySamples is how many timed calls the latency quantiles rest on,
// over all slices.
func (s *session) latencySamples() int64 {
	var n int64
	for _, c := range s.callers {
		for _, t := range c.slices {
			n += min(t.lat.n.Load(), int64(len(t.lat.buf)))
		}
	}
	return n
}

// perLayer is what each layer did during a traced session t; plain is an
// untraced session of the same workload in the same process, the baseline
// the tracing overhead is measured against. Layers a workload bypasses
// report 0: nothing crossed them.
func perLayer(t, plain *session) []metric {
	e, first, last := t.e, t.first(), t.last()
	calls, _, attempted, _ := t.totals()
	var m []metric
	add := func(name, unit string, v float64) { m = append(m, metric{name, unit, v}) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	sites := func(from, to qmetrics.Site) float64 {
		var n int64
		for s := from; s <= to; s++ {
			n += last.probe.Sites[s] - first.probe.Sites[s]
		}
		return float64(n)
	}

	// internal/core and internal/ring, through the queue decorator.
	tm := e.timer
	var coreEnq, coreDeq, coreCAS, ringEnq, ringDeq, ringCAS float64
	if t.w.algo == "ms" {
		q := quantiles([]*samples{tm.enq}, 0.5)
		coreEnq = q[0]
		coreDeq = quantiles([]*samples{tm.deq}, 0.5)[0]
		ops := float64(tm.enq.n.Load() + tm.deq.n.Load())
		coreCAS = ratio(ops, ops+sites(qmetrics.EnqueueLinkCAS, qmetrics.DequeueInconsistent))
	} else {
		ringEnq = ratio(float64(tm.enqBatchNs.Load()), float64(tm.enqBatchElems.Load()))
		ringDeq = ratio(float64(tm.deqBatchNs.Load()), float64(tm.deqBatchElems.Load()))
		ops := float64(tm.enqBatchElems.Load() + tm.deqBatchElems.Load())
		ringCAS = ratio(ops, ops+sites(qmetrics.RingEnqSlot, qmetrics.RingCatchup))
	}
	add("core.enqueue_ns", "ns", coreEnq)
	add("core.dequeue_ns", "ns", coreDeq)
	add("core.cas_success_ratio", "ratio", coreCAS)
	add("ring.enqueue_batch_ns_per_elem", "ns", ringEnq)
	add("ring.dequeue_batch_ns_per_elem", "ns", ringDeq)
	add("ring.cas_success_ratio", "ratio", ringCAS)

	// internal/wire, internal/server and internal/client: network only.
	var encNs, decNs, frameAllocs, bytesPerOp float64
	var srvReads, srvWrites, residence, queueShare, retryFrac, emptyFrac float64
	var cliReads, cliWrites, selfUs, kernelUs, resends float64
	if t.w.network {
		encNs, decNs, frameAllocs = wireMix(t.w.batch)
		frames := float64(attempted)
		cli, srv := last.cliConn.minus(first.cliConn), last.srvConn.minus(first.srvConn)
		bytesPerOp = ratio(float64(cli.bytes), frames)
		srvReads, srvWrites = ratio(float64(srv.reads), frames), ratio(float64(srv.writes), frames)
		cliReads, cliWrites = ratio(float64(cli.reads), frames), ratio(float64(cli.writes), frames)
		residence = quantiles([]*samples{e.residence}, 0.5)[0]
		queueShare = ratio(float64(tm.busyNs.Load()), float64(e.residence.sum.Load()))
		retryFrac = ratio(float64(last.srv.Retries-first.srv.Retries), frames)
		emptyFrac = ratio(float64(last.srv.Empties-first.srv.Empties), frames/2)
		var spans, selfs []*samples
		for _, c := range t.callers {
			spans, selfs = append(spans, c.span), append(selfs, c.self)
		}
		selfUs = quantiles(selfs, 0.5)[0] / 1e3
		kernelUs = (quantiles(spans, 0.5)[0] - residence) / 1e3
		residence /= 1e3
		for _, c := range e.clients {
			resends += float64(c.Resends())
		}
	}
	add("wire.encode_ns_per_frame", "ns", encNs)
	add("wire.decode_ns_per_frame", "ns", decNs)
	add("wire.allocs_per_frame", "count", frameAllocs)
	add("wire.bytes_per_op", "B", bytesPerOp)
	add("server.reads_per_frame", "count", srvReads)
	add("server.writes_per_frame", "count", srvWrites)
	add("server.residence_us", "us", residence)
	add("server.queue_share", "ratio", queueShare)
	add("server.retry_frac", "ratio", retryFrac)
	add("server.empty_frac", "ratio", emptyFrac)
	add("client.reads_per_frame", "count", cliReads)
	add("client.writes_per_frame", "count", cliWrites)
	add("client.self_us", "us", selfUs)
	add("client.kernel_us", "us", kernelUs)
	add("client.resends", "count", resends)

	// internal/metrics and the Go runtime.
	add("metrics.observe_ns", "ns", observeNs())
	add("runtime.gc_cpu_frac", "ratio", ratio(last.gc.gcCPU-first.gc.gcCPU, last.gc.totalCPU-first.gc.totalCPU))
	add("runtime.heap_live_mb", "MB", float64(last.gc.heapLive)/(1<<20))
	add("runtime.gc_cycles", "count", float64(last.gc.cycles-first.gc.cycles))

	// What tracing itself costs.
	plainCalls, _, _, _ := plain.totals()
	plainOps := float64(plainCalls) / plain.seconds()
	tracedOps := float64(calls) / t.seconds()
	add("trace.overhead_frac", "ratio", ratio(plainOps-tracedOps, plainOps))
	allocs := func(s *session, calls int64) float64 {
		return ratio(float64(s.last().mallocs-s.first().mallocs), float64(calls))
	}
	add("trace.allocs_per_op_delta", "count", allocs(t, calls)-allocs(plain, plainCalls))
	add("trace.wrapper_allocs_per_op", "count", wrapperAllocsPerOp(t.w.batch))
	return m
}

// gcSample is the Go runtime's own account of garbage collection and of
// the memory it holds.
type gcSample struct {
	gcCPU, totalCPU float64 // cpu-seconds
	heapLive        uint64
	cycles          uint64
	// held is the memory the runtime has mapped and not handed back to
	// the OS: the process's resident set, less the binary and any pages
	// never touched.
	held uint64
}

var gcMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/live:bytes",
	"/gc/cycles/total:gc-cycles",
	"/memory/classes/total:bytes",
	"/memory/classes/heap/released:bytes",
}

// gcReader reads gcSample without allocating, so sampling memory while
// the window is open adds nothing to the allocation count.
type gcReader []metrics.Sample

func newGCReader() gcReader {
	r := make(gcReader, len(gcMetrics))
	for i, name := range gcMetrics {
		r[i].Name = name
	}
	return r
}

func (r gcReader) read() gcSample {
	metrics.Read(r)
	var g gcSample
	if r[0].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = r[0].Value.Float64()
	}
	if r[1].Value.Kind() == metrics.KindFloat64 {
		g.totalCPU = r[1].Value.Float64()
	}
	if r[2].Value.Kind() == metrics.KindUint64 {
		g.heapLive = r[2].Value.Uint64()
	}
	if r[3].Value.Kind() == metrics.KindUint64 {
		g.cycles = r[3].Value.Uint64()
	}
	if r[4].Value.Kind() == metrics.KindUint64 && r[5].Value.Kind() == metrics.KindUint64 {
		g.held = r[4].Value.Uint64() - r[5].Value.Uint64()
	}
	return g
}

// wireMix times wire.Write and wire.Read directly on a workload's frame
// mix: the request and response frames of one enqueue call and one
// dequeue call of batch values each. It returns ns per encoded frame, ns
// per decoded frame, and allocations per frame encoded and decoded.
func wireMix(batch int) (encNs, decNs, allocs float64) {
	vals := make([]int64, batch)
	for i := range vals {
		vals[i] = int64(encodeValue(1, uint64(i)))
	}
	var frames []wire.Frame
	if batch > 1 {
		frames = []wire.Frame{wire.EnqBatchFrame(1, vals), wire.AckCountFrame(1, batch), wire.DeqBatchFrame(2, batch), wire.ValuesFrame(2, vals)}
	} else {
		frames = []wire.Frame{wire.EnqFrame(1, vals[0]), wire.AckFrame(1), wire.DeqFrame(2), wire.ValueFrame(2, vals[0])}
	}
	const rounds = 20000
	var out bytes.Buffer
	for _, f := range frames {
		_ = wire.Write(&out, f) // writes to a bytes.Buffer do not fail
	}
	encoded := append([]byte(nil), out.Bytes()...)
	n := float64(rounds * len(frames))

	before := mallocs()
	start := nanotime()
	for r := 0; r < rounds; r++ {
		out.Reset()
		for _, f := range frames {
			_ = wire.Write(&out, f)
		}
	}
	encNs = float64(nanotime()-start) / n

	var buf []byte
	in := bytes.NewReader(encoded)
	start = nanotime()
	for r := 0; r < rounds; r++ {
		in.Reset(encoded)
		for range frames {
			var err error
			if _, buf, err = wire.Read(in, buf); err != nil {
				panic("wire: a frame it encoded did not decode: " + err.Error())
			}
		}
	}
	decNs = float64(nanotime()-start) / n
	return encNs, decNs, float64(mallocs()-before) / n
}

// observeNs times metrics.Probe.Observe, the cost the server pays per
// call for its latency histograms.
func observeNs() float64 {
	p := qmetrics.NewProbe()
	const n = 1 << 20
	start := nanotime()
	for i := 0; i < n; i++ {
		p.Observe(qmetrics.Enqueue, time.Duration(i&0xffff))
	}
	return float64(nanotime()-start) / n
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// wrapperAllocsPerOp measures what the tracing wrappers allocate per call
// on their own: the queue decorator over a queue that does nothing, and a
// traced connection over a connection that does nothing. One call is one
// queue call plus one traced write and one traced read.
func wrapperAllocsPerOp(batch int) float64 {
	var gate atomic.Bool
	gate.Store(true)
	q, _ := timeQueue(nopQueue{}, &gate)
	conn := &tracedConn{Conn: nopConn{}, counts: new(connCounts), residence: newSamples(sampleCap, &gate)}
	vs := make([]int, batch)
	p := make([]byte, 64)
	op := func() {
		if batch > 1 {
			q.(queue.Batcher[int]).EnqueueBatch(vs)
			q.(queue.Batcher[int]).DequeueBatch(vs)
		} else {
			q.Enqueue(1)
			q.Dequeue()
		}
		conn.Write(p)
		conn.Read(p)
		conn.Write(p)
		conn.Read(p)
	}
	op()
	const n = 1000
	before := mallocs()
	for i := 0; i < n; i++ {
		op()
	}
	return float64(mallocs()-before) / (2 * n)
}

// nopQueue accepts everything and hands back zeros, with every optional
// interface a served queue may have.
type nopQueue struct{}

func (nopQueue) Enqueue(int)                {}
func (nopQueue) Dequeue() (int, bool)       { return 0, true }
func (nopQueue) TryEnqueue(int) bool        { return true }
func (nopQueue) EnqueueBatch(vs []int) int  { return len(vs) }
func (nopQueue) DequeueBatch(dst []int) int { return len(dst) }

// nopConn is a connection whose reads and writes succeed at once.
type nopConn struct{ net.Conn }

func (nopConn) Read(p []byte) (int, error)  { return len(p), nil }
func (nopConn) Write(p []byte) (int, error) { return len(p), nil }
