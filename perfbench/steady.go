package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runChild runs this program on one workload in a process of its own, so
// that no run inherits another's heap, peak RSS or warm caches. It
// returns the run's last line, parsed, and everything it printed.
func runChild(name string, seed int64, seconds float64, trace int) (jsonResult, []byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return jsonResult{}, nil, err
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var res jsonResult
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, out.Bytes(), fmt.Errorf("%s seed %d: no result line (%v)", name, seed, runErr)
	}
	return res, out.Bytes(), runErr
}

// runAll runs each workload in turn and fails if any run's outputs were
// wrong. Its last line holds every workload's metrics, keyed
// workload/metric.
func runAll(names []string, seed int64, seconds float64, trace int, stdout, stderr io.Writer) int {
	all := jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
	code := 0
	for _, name := range names {
		res, out, err := runChild(name, seed, seconds, trace)
		stdout.Write(out)
		fmt.Fprintln(stdout)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", name+":", err)
			code = 1
		}
		all.Correct = all.Correct && res.Correct && err == nil
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, m := range res.Metrics {
			all.Metrics[name+"/"+k] = m
		}
	}
	line, _ := json.Marshal(all)
	fmt.Fprintln(stdout, string(line))
	return code
}

// bound is one end-to-end metric's entry in BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runSteady is the steadiness self-check: it runs every workload in two
// sets of n runs each, interleaved and each run on its own seed, and
// prints for every end-to-end metric each set's median, each set's
// interquartile range over its median, and how much worse the second
// set's median is than the first's, against the metric's bound in
// BENCHMARK.json (read from the working directory).
func runSteady(names []string, n int, seed int64, seconds float64, stdout, stderr io.Writer) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: steadiness check needs BENCHMARK.json in the working directory:", err)
		return 2
	}
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintln(stderr, "perfbench: BENCHMARK.json:", err)
		return 2
	}
	// values[workload][metric][set] lists the runs' values.
	values := map[string]map[string][2][]float64{}
	code := 0
	for i := 0; i < n; i++ {
		for set := 0; set < 2; set++ {
			for _, name := range names {
				s := seed + int64(2*i+set)
				res, out, err := runChild(name, s, seconds, 0)
				if err != nil || !res.Correct {
					stdout.Write(out)
					fmt.Fprintf(stderr, "perfbench: %s seed %d failed: %v\n", name, s, err)
					code = 1
					continue
				}
				fmt.Fprintf(stderr, "set %c run %d %s seed %d:", 'A'+set, i+1, name, s)
				for _, b := range spec.EndToEnd {
					fmt.Fprintf(stderr, " %s=%.4g", b.Name, res.Metrics[b.Name].Value)
				}
				fmt.Fprintln(stderr)
				if values[name] == nil {
					values[name] = map[string][2][]float64{}
				}
				for k, m := range res.Metrics {
					v := values[name][k]
					v[set] = append(v[set], m.Value)
					values[name][k] = v
				}
			}
		}
	}
	fmt.Fprintf(stdout, "host: %s seeds=%d..%d seconds=%g\n", hostFacts(), seed, seed+int64(2*n-1), seconds)
	fmt.Fprintf(stdout, "%-15s %-19s %14s %14s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "IQR/m A", "IQR/m B", "worse", "bound", "verdict")
	for _, name := range names {
		for _, b := range spec.EndToEnd {
			v := values[name][b.Name]
			if len(v[0]) == 0 || len(v[1]) == 0 {
				continue
			}
			ma, mb := medianOf(v[0]), medianOf(v[1])
			sa, sb := spread(v[0]), spread(v[1])
			worse := (mb - ma) / ma
			if b.Better == "higher" {
				worse = -worse
			}
			verdict := "steady"
			switch {
			case math.Max(sa, sb) > b.Bound:
				verdict, code = "TOO NOISY", 1
			case worse > b.Bound:
				verdict, code = "SETS DISAGREE", 1
			case math.Max(sa, sb) > b.Bound/3:
				verdict = "within bound, spread above a third of it"
			}
			fmt.Fprintf(stdout, "%-15s %-19s %14.4f %14.4f %8.4f %8.4f %8.4f %6.2f  %s\n",
				name, b.Name, ma, mb, sa, sb, worse, b.Bound, verdict)
		}
	}
	return code
}

func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// spread is the interquartile range over the median, with the quartiles
// taken as Python's statistics.quantiles(xs, n=4) takes them (the
// "exclusive" method).
func spread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 2 {
		return 0
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / medianOf(xs)
}
