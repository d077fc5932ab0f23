// Command perfbench is the repository's benchmark: three closed-loop
// workloads over the queue service and the paper's queue, each checked for
// lost, duplicated, fabricated and reordered values. See README.md for the
// workloads, the metrics and the findings behind them.
//
// Usage (from the repository root, through the launcher that builds it):
//
//	bash perfbench/run.sh --workload rpc-pairs --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seconds 10
//	bash perfbench/run.sh --steady 5 --workload all --seconds 10
//
// A single-workload run prints the host facts, a table of metrics and, as
// its last line, one JSON object: end-to-end metrics with --trace 0,
// per-layer metrics from a traced run with --trace 1. It exits 1 when the
// outputs are wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// setups is how many times a run builds its system; setup_s is the
// median. One set-up of an rpc-* workload takes about 10 ms and varies by
// a sixth from one to the next (GC cycles, wake-ups on the loopback round
// trips of the preload); the median of 31 keeps that from setting the
// figure.
const setups = 31

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "rpc-pairs, rpc-batch, inproc-backlog, or all")
	seed := fs.Int64("seed", 1, "workload seed: it decides every value the queue carries")
	seconds := fs.Float64("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end ones")
	steady := fs.Int("steady", 0, "steadiness self-check: runs per set, in two interleaved sets (0 = off)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || *steady < 0 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive, -trace 0 or 1, -steady >= 0")
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if _, err := lookupWorkload(*name); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	switch {
	case *steady > 0:
		return runSteady(names, *steady, *seed, *seconds, stdout, stderr)
	case len(names) > 1:
		return runAll(names, *seed, *seconds, *trace, stdout, stderr)
	}
	w, _ := lookupWorkload(*name)
	window := time.Duration(*seconds * float64(time.Second))
	// A wedged run must still end: the contract is an exit within minutes.
	watchdog := time.AfterFunc(2*window+90*time.Second, func() {
		fmt.Fprintln(stderr, "perfbench: run did not finish in time")
		os.Exit(1)
	})
	defer watchdog.Stop()
	return runOne(w, options{seed: *seed, seconds: window, setups: setups}, *trace == 1, stdout, stderr)
}

// runOne runs one workload and prints its report; it returns the exit
// code: 1 when the outputs were wrong or the run failed.
func runOne(w workload, opt options, traced bool, stdout, stderr io.Writer) int {
	res, problems, err := runWorkload(w, opt, traced)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	trace := 0
	if traced {
		trace = 1
	}
	fmt.Fprintf(stdout, "host: %s workload=%s callers=%d seed=%d seconds=%g trace=%d\n", hostFacts(), w.name, callers, opt.seed, opt.seconds.Seconds(), trace)
	printTable(stdout, res)
	for _, p := range problems {
		fmt.Fprintln(stdout, "WRONG OUTPUT:", p)
	}
	line, err := json.Marshal(res.wireFormat())
	if err != nil { // a metric that is not a finite number
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is one run's outcome.
type result struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Samples   int64 // calls the latency quantiles rest on
	Metrics   []metric
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (r result) wireFormat() jsonResult {
	j := jsonResult{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]jsonMetric{}}
	for _, m := range r.Metrics {
		j.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	return j
}

// runWorkload measures w once: untraced for the end-to-end metrics, or, when
// traced, half the window untraced and half traced, so the tracing overhead
// is the difference between the two halves.
func runWorkload(w workload, opt options, traced bool) (result, []string, error) {
	opt.warmup = min(time.Second, opt.seconds/5)
	if !traced {
		s, err := runSession(w, opt)
		if err != nil {
			return result{}, nil, err
		}
		return s.result(endToEnd(s)), s.problems, nil
	}
	opt.seconds /= 2
	plain, err := runSession(w, opt)
	if err != nil {
		return result{}, nil, err
	}
	opt.traced = true
	t, err := runSession(w, opt)
	if err != nil {
		return result{}, nil, err
	}
	r := t.result(perLayer(t, plain))
	p := plain.result(nil)
	r.Correct = r.Correct && p.Correct
	r.Attempted += p.Attempted
	r.Failed += p.Failed
	return r, append(plain.problems, t.problems...), nil
}

func (s *session) result(m []metric) result {
	_, _, attempted, failed := s.totals()
	return result{
		Correct:   s.violations == 0 && failed == 0,
		Attempted: max(attempted, 1),
		Failed:    failed,
		Samples:   s.latencySamples(),
		Metrics:   m,
	}
}

func printTable(w io.Writer, r result) {
	fmt.Fprintf(w, "%-32s %16s  %s\n", "metric", "value", "unit")
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%-32s %16.4f  %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(w, "%-32s %16.4f  %s   (%d of %d calls)\n", "failed_frac",
		float64(r.Failed)/float64(r.Attempted), "ratio", r.Failed, r.Attempted)
	fmt.Fprintf(w, "%-32s %16d  %s\n", "latency_samples", r.Samples, "count")
}

// hostFacts are the facts about the host every result is recorded with.
func hostFacts() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s network=loopback-tcp",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}
