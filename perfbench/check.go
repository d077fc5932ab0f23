package main

import "fmt"

// Every value the benchmark enqueues names its producer and its place in
// that producer's stream, so the values that come out can be checked
// against the values that went in with O(1) memory per producer.
const seqBits = 48

func encodeValue(producer int, seq uint64) int {
	return producer<<seqBits | int(seq)
}

func decodeValue(v int) (producer int, seq uint64) {
	return v >> seqBits, uint64(v) & (1<<seqBits - 1)
}

// mix is the splitmix64 finalizer. Summing it over a multiset of values
// gives a fingerprint that a lost value plus a duplicated one cannot
// cancel out, which a plain sum or count could.
func mix(v uint64) uint64 {
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return v
}

// producerLedger is what one producer has had acknowledged: sequence
// numbers base..base+acked-1, and their fingerprint. Only its producer
// writes it.
type producerLedger struct {
	base, acked uint64
	hash        uint64
}

// fill writes the producer's next len(dst) values into dst. They count
// only once ack reports them acknowledged, so refused values are offered
// again.
func (l *producerLedger) fill(producer int, dst []int) {
	for i := range dst {
		dst[i] = encodeValue(producer, l.base+l.acked+uint64(i))
	}
}

func (l *producerLedger) ack(producer int, n int) {
	for i := 0; i < n; i++ {
		l.hash += mix(uint64(encodeValue(producer, l.base+l.acked)))
		l.acked++
	}
}

// consumerView is what one consumer has seen of every producer. Only its
// consumer writes it.
type consumerView struct {
	last  []int64 // per producer: last sequence number seen, -1 before any
	count []uint64
	hash  []uint64
	// fabricated counts values naming no producer; reordered counts values
	// that arrived at or before a sequence number this consumer had
	// already seen from the same producer (a reorder or a duplicate).
	fabricated, reordered uint64
}

func newConsumerView(producers int) *consumerView {
	c := &consumerView{
		last:  make([]int64, producers),
		count: make([]uint64, producers),
		hash:  make([]uint64, producers),
	}
	for i := range c.last {
		c.last[i] = -1
	}
	return c
}

// see records one dequeued value and reports whether it was acceptable on
// its own: from a known producer, and later in that producer's stream
// than anything this consumer saw before. Both queues served here are
// linearizable FIFO queues, so one producer's values reach any one
// consumer in enqueue order.
func (c *consumerView) see(v int) bool {
	p, seq := decodeValue(v)
	if p < 0 || p >= len(c.last) {
		c.fabricated++
		return false
	}
	c.count[p]++
	c.hash[p] += mix(uint64(v))
	if int64(seq) <= c.last[p] {
		c.reordered++
		return false
	}
	c.last[p] = int64(seq)
	return true
}

// verdict compares, once every producer and consumer has stopped and the
// queue is drained, what was acknowledged with what was delivered. It
// returns the number of violations (0 means every acknowledged value was
// delivered exactly once, in order, and nothing else was) and a
// description of the first few.
func verdict(ledgers []producerLedger, views []*consumerView) (violations uint64, problems []string) {
	report := func(n uint64, format string, args ...any) {
		violations += n
		if len(problems) < 8 {
			problems = append(problems, fmt.Sprintf(format, args...))
		}
	}
	for _, c := range views {
		if c.fabricated > 0 {
			report(c.fabricated, "%d value(s) named no producer", c.fabricated)
		}
		if c.reordered > 0 {
			report(c.reordered, "%d value(s) arrived out of their producer's order or twice", c.reordered)
		}
	}
	for p, l := range ledgers {
		var count, hash uint64
		var last int64 = -1
		for _, c := range views {
			count += c.count[p]
			hash += c.hash[p]
			last = max(last, c.last[p])
		}
		switch {
		case count < l.acked:
			report(l.acked-count, "producer %d: %d acknowledged value(s) lost", p, l.acked-count)
		case count > l.acked:
			report(count-l.acked, "producer %d: %d value(s) delivered beyond the %d acknowledged", p, count-l.acked, l.acked)
		case last >= int64(l.base+l.acked):
			report(1, "producer %d: sequence %d delivered but only %d..%d acknowledged", p, last, l.base, l.base+l.acked-1)
		case hash != l.hash:
			report(1, "producer %d: delivered values differ from acknowledged ones (one lost, another duplicated)", p)
		}
	}
	return violations, problems
}
