package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"msqueue/internal/client"
	"msqueue/internal/cliutil"
	"msqueue/internal/metrics"
	"msqueue/internal/queue"
	"msqueue/internal/server"
)

// small returns the named workload with a backlog small enough for a test.
func small(t *testing.T, name string) workload {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w.backlog = 2048
	return w
}

func quick(wrap func(queue.Queue[int]) queue.Queue[int]) options {
	return options{seed: 7, seconds: 300 * time.Millisecond, setups: 2, wrap: wrap}
}

// lastLine parses the JSON object a run prints last.
func lastLine(t *testing.T, out string) jsonResult {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return res
}

func TestHonestQueuesPass(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var out bytes.Buffer
			code := runOne(small(t, w.name), quick(nil), false, &out, io.Discard)
			res := lastLine(t, out.String())
			if code != 0 || !res.Correct || res.Failed != 0 {
				t.Fatalf("exit %d, result %+v\n%s", code, res, out.String())
			}
			for _, m := range []string{"throughput_ops_s", "throughput_elems_s", "latency_p50_us", "latency_p99_us",
				"cpu_ns_per_elem", "allocs_per_op", "rss_mb", "setup_s"} {
				if res.Metrics[m].Value <= 0 {
					t.Errorf("%s = %v, want a positive measurement", m, res.Metrics[m].Value)
				}
			}
		})
	}
}

// lossyQueue drops every 50th value it is given, and the first value of
// every batch, while acknowledging them all.
type lossyQueue struct {
	queue.Queue[int]
	n atomic.Int64
}

func (q *lossyQueue) Enqueue(v int) {
	if q.n.Add(1)%50 != 0 {
		q.Queue.Enqueue(v)
	}
}

type lossyBatcher struct{ *lossyQueue }

func (q lossyBatcher) EnqueueBatch(vs []int) int {
	return 1 + q.Queue.(queue.Batcher[int]).EnqueueBatch(vs[1:])
}

func (q lossyBatcher) DequeueBatch(dst []int) int {
	return q.Queue.(queue.Batcher[int]).DequeueBatch(dst)
}

func lossy(q queue.Queue[int]) queue.Queue[int] {
	l := &lossyQueue{Queue: q}
	if _, ok := q.(queue.Batcher[int]); ok {
		return lossyBatcher{l}
	}
	return l
}

// dupQueue hands every 50th value it dequeues out twice: once now, and
// again later, from the tail.
type dupQueue struct {
	queue.Queue[int]
	n atomic.Int64
}

func (q *dupQueue) Dequeue() (int, bool) {
	v, ok := q.Queue.Dequeue()
	if ok && q.n.Add(1)%50 == 0 {
		q.Queue.Enqueue(v)
	}
	return v, ok
}

type dupBatcher struct{ *dupQueue }

func (q dupBatcher) EnqueueBatch(vs []int) int {
	return q.Queue.(queue.Batcher[int]).EnqueueBatch(vs)
}

func (q dupBatcher) DequeueBatch(dst []int) int {
	n := q.Queue.(queue.Batcher[int]).DequeueBatch(dst)
	for _, v := range dst[:n] {
		if q.n.Add(1)%50 == 0 {
			q.Queue.Enqueue(v)
		}
	}
	return n
}

func duplicating(q queue.Queue[int]) queue.Queue[int] {
	d := &dupQueue{Queue: q}
	if _, ok := q.(queue.Batcher[int]); ok {
		return dupBatcher{d}
	}
	return d
}

func TestFaultyQueuesFail(t *testing.T) {
	cases := []struct {
		workload string
		wrap     func(queue.Queue[int]) queue.Queue[int]
	}{
		{"inproc-backlog", lossy},
		{"inproc-backlog", duplicating},
		{"rpc-pairs", lossy},
		{"rpc-pairs", duplicating},
		{"rpc-batch", lossy},
		{"rpc-batch", duplicating},
	}
	for _, c := range cases {
		var out bytes.Buffer
		code := runOne(small(t, c.workload), quick(c.wrap), false, &out, io.Discard)
		res := lastLine(t, out.String())
		if code == 0 || res.Correct || res.Failed == 0 {
			t.Errorf("%s: exit %d, result %+v; want a failed check\n%s", c.workload, code, res, out.String())
		}
		if !strings.Contains(out.String(), "WRONG OUTPUT") {
			t.Errorf("%s: no violation reported\n%s", c.workload, out.String())
		}
	}
}

func TestVerdict(t *testing.T) {
	run := func(deliver func(v *consumerView, l []producerLedger)) uint64 {
		ledgers := make([]producerLedger, 2)
		ledgers[1].base = 10
		vals := make([]int, 5)
		ledgers[1].fill(1, vals)
		ledgers[1].ack(1, len(vals))
		v := newConsumerView(2)
		deliver(v, ledgers)
		n, _ := verdict(ledgers, []*consumerView{v})
		return n
	}
	seq := func(s uint64) int { return encodeValue(1, s) }
	cases := map[string]struct {
		delivered []int
		bad       bool
	}{
		"exact":              {[]int{seq(10), seq(11), seq(12), seq(13), seq(14)}, false},
		"lost":               {[]int{seq(10), seq(11), seq(13), seq(14)}, true},
		"duplicated":         {[]int{seq(10), seq(11), seq(12), seq(13), seq(14), seq(14)}, true},
		"reordered":          {[]int{seq(10), seq(12), seq(11), seq(13), seq(14)}, true},
		"lost and forged":    {[]int{seq(10), seq(11), seq(12), seq(13), seq(15)}, true},
		"unknown producer":   {[]int{seq(10), seq(11), seq(12), seq(13), seq(14), encodeValue(5, 1)}, true},
		"never acknowledged": {[]int{seq(10), seq(11), seq(12), seq(13), seq(14), encodeValue(0, 0)}, true},
	}
	for name, c := range cases {
		got := run(func(v *consumerView, _ []producerLedger) {
			for _, x := range c.delivered {
				v.see(x)
			}
		})
		if (got > 0) != c.bad {
			t.Errorf("%s: %d violations, want bad=%v", name, got, c.bad)
		}
	}
}

// TestDecoratorKeepsTheProgram checks that the tracing decorator has
// exactly the optional interfaces of the queue it wraps, and that a server
// over a decorated ring still takes the ring's batch path, whose probe
// sites fire.
func TestDecoratorKeepsTheProgram(t *testing.T) {
	for _, name := range []string{"ms", "ring"} {
		info, err := cliutil.SelectOne(name)
		if err != nil {
			t.Fatal(err)
		}
		inner := info.New(64)
		var gate atomic.Bool
		q, _ := timeQueue(inner, &gate)
		for _, iface := range []struct {
			name      string
			has, want bool
		}{
			{"queue.Bounded", is[queue.Bounded[int]](q), is[queue.Bounded[int]](inner)},
			{"queue.Batcher", is[queue.Batcher[int]](q), is[queue.Batcher[int]](inner)},
			{"metrics.Instrumented", is[metrics.Instrumented](q), is[metrics.Instrumented](inner)},
		} {
			if iface.has != iface.want {
				t.Errorf("%s: decorated queue implements %s = %v, inner = %v", name, iface.name, iface.has, iface.want)
			}
		}
	}

	info, _ := cliutil.SelectOne("ring")
	var gate atomic.Bool
	gate.Store(true)
	q, timer := timeQueue(info.New(1024), &gate)
	probe := metrics.NewProbe()
	q.(metrics.Instrumented).SetProbe(probe)
	srv := server.New(server.Config{Queue: q, Probe: probe})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln)
	}()
	defer func() {
		srv.Close()
		<-served
	}()
	c := client.New(client.Config{Addr: ln.Addr().String()})
	defer c.Close()
	vs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	if n, err := c.EnqueueBatch(vs); err != nil || n != len(vs) {
		t.Fatalf("EnqueueBatch = %d, %v", n, err)
	}
	dst := make([]int, 64) // asks for more than the ring holds, so the dequeue runs into its empty end
	if n, err := c.DequeueBatch(dst); err != nil || n != len(vs) {
		t.Fatalf("DequeueBatch = %d, %v", n, err)
	}
	if timer.enqBatchElems.Load() != int64(len(vs)) || timer.deqBatchElems.Load() != int64(len(vs)) {
		t.Errorf("batch calls through the decorator moved %d in, %d out; want %d each: the server left the batch path",
			timer.enqBatchElems.Load(), timer.deqBatchElems.Load(), len(vs))
	}
	if probe.Site(metrics.RingCatchup)+probe.Site(metrics.RingDeqSlot) == 0 {
		t.Error("the ring's probe sites did not fire under the decorator")
	}
}

func is[I any](v any) bool {
	_, ok := v.(I)
	return ok
}

func TestTracedConnPassesBytesThrough(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	counts := new(connCounts)
	tc := &tracedConn{Conn: a, counts: counts}
	msg := []byte("frame bytes, unchanged")
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		tc.Write(msg)
	}()
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(b, got); err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("peer read %q, %v; want %q", got, err, msg)
	}
	<-wrote
	go func() {
		b.Write(msg)
	}()
	if _, err := io.ReadFull(tc, got); err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("traced read %q, %v; want %q", got, err, msg)
	}
	if tot := counts.totals(); tot.writes != 1 || tot.bytes != int64(2*len(msg)) {
		t.Errorf("counted %+v, want 1 write and %d bytes", tot, 2*len(msg))
	}
}

// TestTracingAddsOnlyItsOwnAllocations compares allocations per call in the
// traced half of a run with the untraced half: they may differ only by
// what the wrappers allocate, which the run reports.
func TestTracingAddsOnlyItsOwnAllocations(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			opt := quick(nil)
			opt.seconds = time.Second
			res, problems, err := runWorkload(small(t, w.name), opt, true)
			if err != nil || !res.Correct {
				t.Fatalf("traced run: %v %v", err, problems)
			}
			m := map[string]float64{}
			for _, x := range res.Metrics {
				m[x.name] = x.value
			}
			delta, own := m["trace.allocs_per_op_delta"], m["trace.wrapper_allocs_per_op"]
			// The program's own allocations per call differ by up to about
			// 0.05 between the two halves of a short run; an allocation a
			// wrapper made on every call would add at least 1.
			if d := delta - own; d > 0.1 || d < -0.1 {
				t.Errorf("traced allocs/op differ from untraced by %.4f, wrappers account for %.4f", delta, own)
			}
			network := []string{"wire.encode_ns_per_frame", "server.residence_us", "client.reads_per_frame"}
			for _, name := range network {
				if got := m[name]; (got != 0) != w.network {
					t.Errorf("%s = %v on a workload with network=%v", name, got, w.network)
				}
			}
		})
	}
}

func TestSpreadMatchesPythonQuartiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]; median 5.5.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(xs), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
