// Command perfbench is the serving benchmark: it trains the default TBNet
// pipeline, starts the real serving stack in this process and drives one
// workload through it, checking every reply against a reference label.
//
//	go build -o perfbench . && ./perfbench --workload f32-load --seed 1 --seconds 16 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs a
// separate traced pass and prints the per-layer metrics. The last line of
// standard output is one JSON object; progress goes to standard error.
// README.md describes the workloads and every metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"syscall"
	"time"

	"tbnet/internal/fleet"
)

// setupReps is how many times an untraced run sets up; setup_s is the
// mean (for two, also the median), and each setup serves one slice of the
// measurement. Each setup trains the pipeline anew (about 12 s); a third
// would leave too little of a run's time budget for measuring.
const setupReps = 2

// openShare is the share of --seconds given to the open-loop phase; the
// closed-loop phase gets the rest.
const openShare = 0.5

// runBudget bounds a whole run, so a hung request cannot keep the process
// alive indefinitely.
const runBudget = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: http-sparse, f32-load or int8-protected")
	seed := fs.Uint64("seed", 1, "seed of the arrival times and sample choices")
	seconds := fs.Float64("seconds", 16, "measured seconds (open-loop then closed-loop phase)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced pass with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> (workload %q)\n", *name)
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	dur := time.Duration(*seconds * float64(time.Second))
	var out *report
	var err error
	if *trace == 1 {
		out, err = traced(ctx, w, *seed, dur, stderr)
	} else {
		out, err = endToEnd(ctx, w, *seed, dur, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// report is the JSON line the benchmark ends with.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// newReport tallies the phases and fills every declared metric from values,
// failing if a value is missing, undeclared or NaN. A +Inf value (a
// percentile that landed on a miss) is printed as the largest float64.
func newReport(defs []metricDef, values map[string]float64, phases ...*phase) (*report, error) {
	r := &report{Correct: true, Metrics: map[string]metric{}}
	for _, p := range phases {
		r.Attempted += p.sent
		r.Failed += p.failed()
		r.Correct = r.Correct && p.wrong == 0
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) {
			return nil, fmt.Errorf("metric %s has no value", d.name)
		}
		r.Metrics[d.name] = metric{Value: math.Min(v, math.MaxFloat64), Unit: d.unit}
	}
	if len(values) != len(defs) {
		return nil, fmt.Errorf("%d metric values for %d declared metrics", len(values), len(defs))
	}
	return r, nil
}

// fleetSnap is the part of fleet.Stats a phase is measured by.
type fleetSnap struct {
	requests, batches, shed int64
	hostNs                  float64
	routed                  map[string]int64
	modeledSum              float64
	modeledN                uint64
}

func snapFleet(f *fleet.Fleet) fleetSnap {
	st := f.Stats()
	s := fleetSnap{requests: st.Requests, shed: st.Shed, routed: map[string]int64{},
		modeledSum: st.LatencyHist.Sum(), modeledN: st.LatencyHist.Count()}
	for _, d := range st.PerDevice {
		s.batches += d.Serve.Batches
		s.hostNs += d.Serve.HostNsPerOp * float64(d.Serve.Requests)
		s.routed[d.Name] = d.Routed
	}
	return s
}

// measure runs fn as one phase and cross-checks its reply count against the
// fleet's request counter, read right after the last reply. It returns the
// phase, the counter deltas, and the gap between the two counts.
func measure(s *stack, fn func() *phase, stderr io.Writer) (*phase, fleetSnap, int64) {
	before := snapFleet(s.fleet)
	p := fn()
	after := snapFleet(s.fleet)
	d := fleetSnap{
		requests: after.requests - before.requests, batches: after.batches - before.batches,
		shed: after.shed - before.shed, hostNs: after.hostNs - before.hostNs, routed: map[string]int64{},
		modeledSum: after.modeledSum - before.modeledSum, modeledN: after.modeledN - before.modeledN,
	}
	for k, v := range after.routed {
		d.routed[k] = v - before.routed[k]
	}
	lag := int64(p.ok+p.wrong) - d.requests
	fmt.Fprintf(stderr, "%-14s sent %6d ok %6d wrong %d shed %d errors %d | fleet requests %d shed %d stats_lag %d | %.2fs\n",
		p.name, p.sent, p.ok, p.wrong, p.shed, p.errors, d.requests, d.shed, lag, p.elapsed.Seconds())
	return p, d, lag
}

// endToEnd is the untraced run. It sets up setupReps times, and after each
// setup measures one slice of both phases on the new stack: its share of the
// open-loop schedule, then its share of the closed-loop time. Spreading the
// measured seconds over the whole run keeps one burst of load from other
// processes on the machine from deciding a run's figures.
func endToEnd(ctx context.Context, w workload, seed uint64, dur time.Duration, stderr io.Writer) (*report, error) {
	pl, err := newPool()
	if err != nil {
		return nil, err
	}
	openDur := time.Duration(float64(dur) * openShare)
	sched := poissonSchedule(seed, w.openRPS, openDur)
	open, closed := &phase{name: "open"}, &phase{name: "closed"}
	var modeledSum float64
	var modeledN uint64
	setups := make([]float64, setupReps)
	for i := range setups {
		var t setupTimes
		dep, err := buildModel(ctx, w, pl, &t)
		if err != nil {
			return nil, err
		}
		s, err := startWarm(ctx, w, dep, pl, nil, nil, &t)
		if err != nil {
			return nil, err
		}
		setups[i] = t.total()
		fmt.Fprintf(stderr, "setup %d: %.2fs\n", i+1, setups[i])
		runtime.GC()
		o, od, _ := measure(s, func() *phase {
			return runOpen(ctx, fmt.Sprintf("open %d", i+1), slice(sched, openDur, i, setupReps), pl, s.call)
		}, stderr)
		c, cd, _ := measure(s, func() *phase {
			return runClosed(ctx, fmt.Sprintf("closed %d", i+1), w.clients(), (dur-openDur)/setupReps,
				samplePicks(seed, uint64(3+i), 4*poolN), pl, s.call)
		}, stderr)
		if err := s.close(); err != nil {
			return nil, err
		}
		open.add(o)
		closed.add(c)
		modeledSum += od.modeledSum + cd.modeledSum
		modeledN += od.modeledN + cd.modeledN
	}
	sent := float64(open.sent + closed.sent)
	values := map[string]float64{
		"setup_s":         mean(setups),
		"p50_ms":          quantile(open.latMs, 0.50),
		"throughput_rps":  float64(closed.ok) / closed.elapsed.Seconds(),
		"success_ratio":   float64(open.ok+closed.ok) / sent,
		"accuracy":        float64(open.accurate+closed.accurate) / sent,
		"modeled_mean_ms": modeledSum / float64(modeledN) * 1e3,
		"max_rss_mb":      maxRSSMB(),
	}
	return newReport(endToEndMetrics, values, open, closed)
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// maxRSSMB is the process's peak resident memory.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
