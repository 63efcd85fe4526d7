package fleet

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"tbnet/internal/core"
	"tbnet/internal/serve"
	"tbnet/internal/tee"
	"tbnet/internal/tensor"
	"tbnet/internal/zoo"
)

// testDeployment builds a deployed tiny finalized two-branch model without
// the training pipeline: fleet behaviour depends on routing and the staged
// protocol, not on learned weights.
func testDeployment(t testing.TB, seed uint64) *core.Deployment {
	t.Helper()
	victim := zoo.BuildVGG(zoo.TinyVGGConfig(4), tensor.NewRNG(seed))
	tb := core.NewTwoBranch(victim, seed+1)
	tb.Finalized = true
	dep, err := core.Deploy(tb, tee.RaspberryPi3(), []int{1, 3, 16, 16})
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

func randSamples(n int, seed uint64) []*tensor.Tensor {
	rng := tensor.NewRNG(seed)
	xs := make([]*tensor.Tensor, n)
	for i := range xs {
		x := tensor.New(1, 3, 16, 16)
		rng.FillNormal(x, 0, 1)
		xs[i] = x
	}
	return xs
}

// mixedNodes is the paper-flavoured heterogeneous fleet: an edge board, a
// desktop enclave, and a heterogeneous SoC.
func mixedNodes(t testing.TB, workers int) []NodeConfig {
	t.Helper()
	var nodes []NodeConfig
	for _, name := range []string{"rpi3", "sgx-desktop", "jetson-tz"} {
		dev, err := tee.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, NodeConfig{Device: dev, Workers: workers})
	}
	return nodes
}

// TestFleetMatchesSequential: routing across heterogeneous devices must not
// change results — every label agrees with sequential single-sample
// inference on the template.
func TestFleetMatchesSequential(t *testing.T) {
	dep := testDeployment(t, 1)
	const n = 18
	xs := randSamples(n, 2)
	want := make([]int, n)
	for i, x := range xs {
		labels, err := dep.Infer(x)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = labels[0]
	}
	for _, policy := range []Policy{RoundRobin(), LeastLoaded(), CostAware()} {
		f, err := New(dep, Config{Nodes: mixedNodes(t, 1), Policy: policy,
			MaxDelay: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.InferBatch(context.Background(), xs)
		if err != nil {
			t.Fatalf("%s: %v", policy.Name(), err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: sample %d routed label %d != sequential %d",
					policy.Name(), i, got[i], want[i])
			}
		}
		st := f.Stats()
		if st.Requests != n {
			t.Fatalf("%s: stats requests = %d, want %d", policy.Name(), st.Requests, n)
		}
		if st.RoutingDecisions != n {
			t.Fatalf("%s: routing decisions = %d, want %d", policy.Name(), st.RoutingDecisions, n)
		}
		if st.HostNsPerOp <= 0 {
			t.Fatalf("%s: HostNsPerOp = %v, want > 0 (real ns/op must aggregate)", policy.Name(), st.HostNsPerOp)
		}
		f.Close()
	}
}

// TestFleetCloseUnderFire is the -race regression the fleet must hold: 32
// goroutines hammer Infer while Close runs mid-stream. No deadlock, no
// panic; enqueuers resolve with a label, ErrClosed, or ErrOverloaded.
func TestFleetCloseUnderFire(t *testing.T) {
	dep := testDeployment(t, 10)
	f, err := New(dep, Config{
		Nodes:       mixedNodes(t, 1),
		Policy:      LeastLoaded(),
		MaxInFlight: 8, // small cap so shedding is exercised too
		MaxDelay:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	xs := randSamples(8, 11)
	const clients = 32
	var wg sync.WaitGroup
	bad := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_, err := f.Infer(context.Background(), xs[(c+i)%len(xs)])
				switch {
				case err == nil, errors.Is(err, ErrOverloaded):
					// keep hammering
				case errors.Is(err, serve.ErrClosed):
					return
				default:
					bad <- err
					return
				}
			}
		}(c)
	}
	time.Sleep(5 * time.Millisecond) // let the fire reach the queues
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(bad)
	for err := range bad {
		t.Errorf("unexpected error under close: %v", err)
	}
	if _, err := f.Infer(context.Background(), xs[0]); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("post-close Infer err = %v, want ErrClosed", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestFleetDeadlineSheds: a request that cannot be answered within the fleet
// deadline is shed with ErrOverloaded instead of queueing past it.
func TestFleetDeadlineSheds(t *testing.T) {
	dep := testDeployment(t, 20)
	gate := newGateTap()
	f, err := New(dep, Config{
		Nodes:    []NodeConfig{{Device: tee.RaspberryPi3(), Workers: 1}},
		Deadline: time.Millisecond,
		MaxBatch: 8,
		MaxDelay: 250 * time.Millisecond,
		Tap:      gate,
	})
	if err != nil {
		t.Fatal(err)
	}
	x := randSamples(1, 21)[0]
	// Hold the node's only worker on a request sent past the fleet (so no
	// deadline can drop it before it runs): the probe below then genuinely
	// queues behind it until the deadline passes.
	held := make(chan error, 1)
	go func() {
		_, err := f.snapshotNodes()[0].srv.Infer(context.Background(), x)
		held <- err
	}()
	<-gate.held
	if _, err := f.Infer(context.Background(), x); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("deadline miss err = %v, want ErrOverloaded", err)
	}
	if st := f.Stats(); st.Shed < 1 {
		t.Fatalf("stats shed = %d, want ≥ 1", st.Shed)
	}
	// A caller's own expired context is the caller's problem, not shedding.
	ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	if _, err := f.Infer(ctx, x); !errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrOverloaded) {
		t.Fatalf("caller-deadline err = %v, want bare context.DeadlineExceeded", err)
	}
	close(gate.release)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	// Shed load is dropped at batch formation, not executed behind the
	// caller's back: after the drain, only the holding request was served.
	f.Close()
	if st := f.Stats(); st.Requests != 1 {
		t.Fatalf("shed requests were executed anyway: requests = %d, want 1", st.Requests)
	}
}

// gateTap parks the first protocol run it sees inside its worker until
// release is closed, so a test can keep a node's only worker busy on demand
// and let later requests genuinely queue behind it. Later runs pass through.
type gateTap struct {
	held    chan struct{} // closed once the first run is parked in the tap
	release chan struct{}
	once    sync.Once
}

func newGateTap() *gateTap {
	return &gateTap{held: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateTap) TapRun(string, tee.Device, string, int, []tee.Event) float64 {
	g.once.Do(func() {
		close(g.held)
		<-g.release
	})
	return 0
}

// TestFleetMaxInFlightSheds: admission beyond the in-flight cap fails fast
// with ErrOverloaded.
func TestFleetMaxInFlightSheds(t *testing.T) {
	dep := testDeployment(t, 30)
	f, err := New(dep, Config{
		Nodes:       []NodeConfig{{Device: tee.RaspberryPi3(), Workers: 1}},
		MaxInFlight: 2,
		MaxDelay:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Saturate the cap from the test side: the counter is the admission gate.
	f.inflight.Add(2)
	x := randSamples(1, 31)[0]
	if _, err := f.Infer(context.Background(), x); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-cap Infer err = %v, want ErrOverloaded", err)
	}
	f.inflight.Add(-2)
	if _, err := f.Infer(context.Background(), x); err != nil {
		t.Fatalf("under-cap Infer err = %v, want nil", err)
	}
	if st := f.Stats(); st.Shed != 1 {
		t.Fatalf("stats shed = %d, want 1", st.Shed)
	}
}

func TestFleetInferBatchErrorCarriesSampleIndex(t *testing.T) {
	dep := testDeployment(t, 40)
	f, err := New(dep, Config{Nodes: mixedNodes(t, 1), MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	xs := randSamples(3, 41)
	xs[2] = tensor.New(1, 3, 8, 8) // wrong spatial size
	_, err = f.InferBatch(context.Background(), xs)
	if !errors.Is(err, core.ErrShape) {
		t.Fatalf("err = %v, want ErrShape", err)
	}
	if !strings.Contains(err.Error(), "sample 2") {
		t.Fatalf("err %q does not name the bad sample index", err)
	}
}

func TestFleetConfigValidation(t *testing.T) {
	dep := testDeployment(t, 50)
	cases := []Config{
		{}, // no nodes
		{Nodes: []NodeConfig{{Device: nil}}},
		{Nodes: []NodeConfig{{Device: tee.RaspberryPi3(), Workers: -1}}},
		{Nodes: []NodeConfig{{Device: tee.RaspberryPi3()}}, Deadline: -time.Second},
		{Nodes: []NodeConfig{{Device: tee.RaspberryPi3()}}, MaxBatch: -1},
		{Nodes: []NodeConfig{{Device: tee.RaspberryPi3()}}, MaxDelay: -time.Second},
	}
	for i, cfg := range cases {
		if _, err := New(dep, cfg); !errors.Is(err, ErrConfig) {
			t.Fatalf("case %d: err = %v, want ErrConfig", i, err)
		}
	}
	if _, err := New(nil, Config{Nodes: mixedNodes(t, 1)}); !errors.Is(err, ErrConfig) {
		t.Fatalf("nil deployment: err = %v, want ErrConfig", err)
	}
}

// TestFleetDuplicateDevicesGetDistinctNames: attaching two boards of the same
// type keeps their stats attributable.
func TestFleetDuplicateDevicesGetDistinctNames(t *testing.T) {
	dep := testDeployment(t, 60)
	f, err := New(dep, Config{Nodes: []NodeConfig{
		{Device: tee.RaspberryPi3(), Workers: 1},
		{Device: tee.RaspberryPi3(), Workers: 1},
	}, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st := f.Stats()
	if len(st.PerDevice) != 2 || st.PerDevice[0].Name != "rpi3" || st.PerDevice[1].Name != "rpi3#2" {
		t.Fatalf("per-device names = %+v, want rpi3 + rpi3#2", st.PerDevice)
	}
}

// TestFleetStatsAggregate: the fleet snapshot is consistent — requests and
// routing decisions add up across nodes, percentiles are ordered, and the
// secure footprint sums the pools.
func TestFleetStatsAggregate(t *testing.T) {
	dep := testDeployment(t, 70)
	f, err := New(dep, Config{Nodes: mixedNodes(t, 1), Policy: RoundRobin(),
		MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const n = 24
	if _, err := f.InferBatch(context.Background(), randSamples(n, 71)); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.Policy != "round-robin" || st.Devices != 3 {
		t.Fatalf("identity wrong: %+v", st)
	}
	if st.Requests != n || st.Errors != 0 || st.Shed != 0 {
		t.Fatalf("counters wrong: requests %d errors %d shed %d", st.Requests, st.Errors, st.Shed)
	}
	var routed int64
	for _, d := range st.PerDevice {
		routed += d.Routed
		if d.Serve.Device == "" || d.SampleLatencyMicros <= 0 {
			t.Fatalf("device stats incomplete: %+v", d)
		}
	}
	if routed != n || st.RoutingDecisions != n {
		t.Fatalf("routing decisions %d / per-device sum %d, want %d", st.RoutingDecisions, routed, n)
	}
	if !(st.P50Micros > 0 && st.P50Micros <= st.P95Micros && st.P95Micros <= st.P99Micros) {
		t.Fatalf("percentiles inconsistent: p50 %g p95 %g p99 %g", st.P50Micros, st.P95Micros, st.P99Micros)
	}
	if st.ModeledThroughput <= 0 || st.PeakSecureBytes <= 0 {
		t.Fatalf("aggregates wrong: %+v", st)
	}
}
