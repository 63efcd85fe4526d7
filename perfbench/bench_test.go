package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"tbnet/internal/fleet"
)

func TestScheduleAndPoolDeterministicInSeed(t *testing.T) {
	a := poissonSchedule(7, 500, 2*time.Second)
	if !reflect.DeepEqual(a, poissonSchedule(7, 500, 2*time.Second)) {
		t.Fatal("same seed, different schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, 500, 2*time.Second)) {
		t.Fatal("different seeds, same schedule")
	}
	if n := len(a); n < 900 || n > 1100 {
		t.Fatalf("%d arrivals in 2s at 500/s", n)
	}
	// The slices a run measures one per setup make up the whole schedule.
	var joined []arrival
	for i := 0; i < setupReps; i++ {
		for _, x := range slice(a, 2*time.Second, i, setupReps) {
			x.due += 2 * time.Second * time.Duration(i) / setupReps
			joined = append(joined, x)
		}
	}
	if !reflect.DeepEqual(joined, a) {
		t.Fatal("the slices do not make up the schedule")
	}
	if !reflect.DeepEqual(samplePicks(7, 3, 2000), samplePicks(7, 3, 2000)) ||
		reflect.DeepEqual(samplePicks(7, 3, 2000), samplePicks(8, 3, 2000)) {
		t.Fatal("closed-loop picks are not determined by the seed")
	}
	// Each run of poolN consecutive picks is a permutation of the pool.
	seen := map[int]bool{}
	for _, s := range samplePicks(7, 3, poolN) {
		seen[s] = true
	}
	if len(seen) != poolN {
		t.Fatalf("%d distinct samples in %d picks", len(seen), poolN)
	}

	p1, err := newPool()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := newPool()
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.xs) != poolN || !reflect.DeepEqual(p1.truth, p2.truth) || !reflect.DeepEqual(p1.bodies, p2.bodies) {
		t.Fatal("the input pool differs between draws")
	}
	classes := map[int]bool{}
	for i, x := range p1.xs {
		if !equalBits(x.Data(), p2.xs[i].Data()) {
			t.Fatalf("sample %d differs between draws", i)
		}
		classes[p1.truth[i]] = true
	}
	if len(classes) != 10 {
		t.Fatalf("pool covers %d classes, want 10", len(classes))
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, printed []metricDef) {
		want := map[string]string{}
		for _, d := range declared {
			want[d.Name] = d.Unit
		}
		for _, m := range printed {
			if unit, ok := want[m.name]; !ok || unit != m.unit {
				t.Errorf("%s metric %s (%s) is not declared in BENCHMARK.json as such", kind, m.name, m.unit)
			}
		}
		if len(declared) != len(printed) {
			t.Errorf("BENCHMARK.json declares %d %s metrics, the benchmark prints %d", len(declared), kind, len(printed))
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %s is unknown", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the benchmark has %d", names, len(workloads))
	}

	values := map[string]float64{}
	for _, m := range endToEndMetrics {
		values[m.name] = 1
	}
	if _, err := newReport(endToEndMetrics, values); err != nil {
		t.Fatal(err)
	}
	values["undeclared"] = 1
	if _, err := newReport(endToEndMetrics, values); err == nil {
		t.Fatal("an undeclared metric was printed")
	}
	delete(values, "undeclared")
	delete(values, "p50_ms")
	if _, err := newReport(endToEndMetrics, values); err == nil {
		t.Fatal("a declared metric went missing")
	}
}

// fakePool is a pool whose reference and true label of sample i is i%10.
func fakePool() *pool {
	p := &pool{ref: make([]int, poolN), truth: make([]int, poolN)}
	for i := range p.ref {
		p.ref[i], p.truth[i] = i%10, i%10
	}
	return p
}

// faulty answers every request correctly except those for sample bad,
// which get fault's outcome.
func faulty(pl *pool, bad int, fault error) caller {
	return func(ctx context.Context, sample int) (int, error) {
		if sample != bad {
			return pl.ref[sample], nil
		}
		if fault != nil {
			return 0, fault
		}
		return pl.ref[sample] + 1, nil
	}
}

// fixedSchedule sends samples 0..n-1 a millisecond apart.
func fixedSchedule(n int) []arrival {
	out := make([]arrival, n)
	for i := range out {
		out[i] = arrival{due: time.Duration(i) * time.Millisecond, sample: i}
	}
	return out
}

func TestWrongLabelIsCaught(t *testing.T) {
	pl := fakePool()
	open := runOpen(context.Background(), "open", fixedSchedule(20), pl, faulty(pl, 3, nil))
	if open.wrong != 1 || open.ok != 19 || !math.IsInf(open.latMs[3], 1) {
		t.Fatalf("open: wrong %d ok %d latency of the wrong reply %v", open.wrong, open.ok, open.latMs[3])
	}
	closed := runClosed(context.Background(), "closed", 2, 20*time.Millisecond, []int{0, 3}, pl, faulty(pl, 3, nil))
	if closed.wrong == 0 || closed.wrong+closed.ok != closed.sent {
		t.Fatalf("closed: wrong %d ok %d sent %d", closed.wrong, closed.ok, closed.sent)
	}
	r, err := newReport(nil, map[string]float64{}, open, closed)
	if err != nil {
		t.Fatal(err)
	}
	if r.Correct || r.Failed != open.wrong+closed.wrong || r.Attempted != open.sent+closed.sent {
		t.Fatalf("report %+v does not flag the wrong labels", r)
	}
}

func TestShedRequestIsAMiss(t *testing.T) {
	pl := fakePool()
	shed := fmt.Errorf("HTTP 503: %w", fleet.ErrOverloaded)
	p := runOpen(context.Background(), "open", fixedSchedule(50), pl, faulty(pl, 7, shed))
	if p.shed != 1 || p.ok != 49 || p.failed() != 1 {
		t.Fatalf("shed %d ok %d failed %d", p.shed, p.ok, p.failed())
	}
	if p99 := quantile(p.latMs, 0.99); !math.IsInf(p99, 1) {
		t.Fatalf("p99 of 50 requests with one shed is %v, want a miss", p99)
	}
	if p50 := quantile(p.latMs, 0.5); math.IsInf(p50, 1) {
		t.Fatal("one shed request of 50 moved the median to a miss")
	}
	r, err := newReport([]metricDef{{"p99_ms", "ms"}}, map[string]float64{"p99_ms": quantile(p.latMs, 0.99)}, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := json.Marshal(r); err != nil {
		t.Fatalf("a missed percentile does not encode: %v", err)
	}
	if !r.Correct || r.Failed != 1 {
		t.Fatalf("report %+v: a shed request is a failure, not a wrong output", r)
	}
}
