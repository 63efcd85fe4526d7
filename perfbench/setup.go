package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"tbnet"
	"tbnet/internal/core"
	"tbnet/internal/fleet"
	"tbnet/internal/httpd"
	"tbnet/internal/obs"
	"tbnet/internal/seceval"
	"tbnet/internal/tee"
	"tbnet/internal/tensor"
)

// node is one attached device and its worker count.
type node struct {
	device  string
	workers int
}

// workload is one traffic mix. README.md gives the reason for each.
type workload struct {
	name string
	// http sends every request as POST /v1/infer over loopback; otherwise
	// requests call Fleet.InferModel in-process.
	http bool
	int8 bool
	// obfuscate is the seceval chain of a tap on every run ("" = no tap).
	obfuscate string
	nodes     []node
	openRPS   float64
	// callers is the closed-loop client count (0: one per CPU, which is
	// also the HTTP connection cap).
	callers int
}

var workloads = []workload{
	{name: "http-sparse", http: true, nodes: []node{{"rpi3", 2}}, openRPS: 100},
	{name: "f32-load", nodes: []node{{"rpi3", 2}}, openRPS: 500, callers: 16},
	{name: "int8-protected", int8: true, obfuscate: "pad:4096,dummy:0.25",
		nodes: []node{{"rpi3", 2}, {"sgx-desktop", 2}}, openRPS: 500, callers: 32},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// clients is the closed-loop caller count.
func (w workload) clients() int {
	if w.callers > 0 {
		return w.callers
	}
	return runtime.NumCPU()
}

// The default pipeline's dataset: tbnet.NewPipeline draws 120 training and
// 60 test samples from SynthCIFAR10 seeded with its seed + 10. Drawing more
// test samples from the same generator extends the test split, so samples
// past the first 60 are held out from training and pruning alike.
const (
	pipelineSeed = 1
	trainN       = 120
	testN        = 60
	poolN        = 500
)

// pool holds the request inputs: held-out samples of the pipeline's own
// distribution with their ground truth, the template deployment's label for
// each, and each sample's HTTP body.
type pool struct {
	xs     []*tensor.Tensor // [1,3,16,16]
	truth  []int
	ref    []int
	bodies [][]byte
	// split is the pipeline's own test split as this draw reproduces it.
	split []float32
}

// newPool draws the held-out samples and encodes their HTTP bodies. It
// checks that every body decodes to the exact float32 input.
func newPool() (*pool, error) {
	_, test := tbnet.GenerateDataset(tbnet.SynthCIFAR10(trainN, testN+poolN, pipelineSeed+10))
	per := test.X.Size() / test.Len()
	all := test.X.Data()
	p := &pool{truth: test.Y[testN:], split: all[:testN*per]}
	for i := testN; i < test.Len(); i++ {
		x := tensor.New(1, 3, 16, 16)
		copy(x.Data(), all[i*per:(i+1)*per])
		body := encodeBody(x.Data())
		var back struct{ Input []float64 }
		if err := json.Unmarshal(body, &back); err != nil {
			return nil, err
		}
		for j, v := range back.Input {
			if math.Float32bits(float32(v)) != math.Float32bits(x.Data()[j]) {
				return nil, fmt.Errorf("sample %d value %d does not round-trip through JSON", i, j)
			}
		}
		p.xs = append(p.xs, x)
		p.bodies = append(p.bodies, body)
	}
	return p, nil
}

// encodeBody renders a /v1/infer body. Each float32 is written as the
// shortest decimal of its exact float64 value, which the server's float64
// decode and float32 conversion map back to the same bits.
func encodeBody(xs []float32) []byte {
	b := []byte(`{"input":[`)
	for i, v := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, float64(v), 'g', -1, 64)
	}
	return append(b, "]}"...)
}

func equalBits(a, b []float32) bool {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// references labels every pool sample with the template deployment, one
// sample per call, and rejects a reference set too uniform to catch a
// wrong answer.
func references(dep *core.Deployment, pl *pool) ([]int, error) {
	ref := make([]int, len(pl.xs))
	distinct := map[int]bool{}
	for i, x := range pl.xs {
		labels, err := dep.Infer(x)
		if err != nil {
			return nil, fmt.Errorf("reference label %d: %w", i, err)
		}
		ref[i] = labels[0]
		distinct[ref[i]] = true
	}
	if len(distinct) < 8 {
		return nil, fmt.Errorf("references use %d distinct labels, want at least 8", len(distinct))
	}
	return ref, nil
}

// setupTimes are the parts of one setup, in seconds.
type setupTimes struct {
	victim, transfer, prune, finalize float64 // pipeline phases
	deploy, fleet, warm               float64
}

func (t setupTimes) total() float64 {
	return t.victim + t.transfer + t.prune + t.finalize + t.deploy + t.fleet + t.warm
}

// trainModel runs the default pipeline and times its phases.
func trainModel(ctx context.Context, t *setupTimes) (*tbnet.PipelineResult, error) {
	last := time.Now()
	phases := map[tbnet.Phase]*float64{
		tbnet.PhaseVictim: &t.victim, tbnet.PhaseTransfer: &t.transfer,
		tbnet.PhasePrune: &t.prune, tbnet.PhaseFinalize: &t.finalize,
	}
	p, err := tbnet.NewPipeline(tbnet.WithSeed(pipelineSeed), tbnet.WithProgress(func(ph tbnet.Phase, epoch int) {
		if epoch < 0 {
			*phases[ph] = time.Since(last).Seconds()
			last = time.Now()
		}
	}))
	if err != nil {
		return nil, err
	}
	return p.Run(ctx)
}

// deploy places the trained model on rpi3 at the workload's precision, with
// the daemon's [1,3,16,16] sample shape.
func deploy(w workload, tb *tbnet.TwoBranch) (*core.Deployment, error) {
	shape := []int{1, 3, 16, 16}
	if w.int8 {
		return core.DeployInt8(tb, tee.RaspberryPi3(), shape)
	}
	return core.Deploy(tb, tee.RaspberryPi3(), shape)
}

// stack is a running serving stack: the fleet with the daemon's defaults
// (MaxBatch 8, MaxDelay 2ms, cost-aware routing) and, on HTTP workloads,
// the daemon's HTTP server on a loopback port.
type stack struct {
	w      workload
	pool   *pool
	fleet  *fleet.Fleet
	tap    *seceval.Tap
	tracer *obs.Tracer
	srv    *httpd.Server
	served chan error
	url    string
	client *http.Client
	non2xx atomic.Int64
}

// startStack starts the fleet (and HTTP server) for dep. A non-nil tracer
// is shared by the fleet and the HTTP server, as the daemon does; wrapTap,
// if set, wraps the seceval tap before the fleet sees it.
func startStack(w workload, dep *core.Deployment, pl *pool, tracer *obs.Tracer, wrapTap func(fleet.RunTap) fleet.RunTap) (*stack, error) {
	s := &stack{w: w, pool: pl, tracer: tracer}
	cfg := fleet.Config{Policy: fleet.CostAware(), Tracer: tracer}
	for _, n := range w.nodes {
		d, err := tee.ByName(n.device)
		if err != nil {
			return nil, err
		}
		cfg.Nodes = append(cfg.Nodes, fleet.NodeConfig{Device: d, Workers: n.workers})
	}
	if w.obfuscate != "" {
		chain, err := seceval.ParseChain(w.obfuscate)
		if err != nil {
			return nil, err
		}
		s.tap = seceval.NewTap(seceval.WithObfuscation(chain), seceval.WithSeed(1), seceval.WithRunLimit(1))
		cfg.Tap = s.tap
		if wrapTap != nil {
			cfg.Tap = wrapTap(s.tap)
		}
	}
	f, err := fleet.New(dep, cfg)
	if err != nil {
		return nil, err
	}
	s.fleet = f
	if !w.http {
		return s, nil
	}
	s.srv, err = httpd.New(httpd.Config{
		Fleet:         f,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
		Tracer:        tracer,
		SlowThreshold: 250 * time.Millisecond,
		RetryAfter:    time.Second,
		Tap:           s.tap,
	})
	if err != nil {
		f.Close()
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Close()
		return nil, err
	}
	s.url = "http://" + l.Addr().String() + "/v1/infer"
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(l) }()
	conns := w.clients()
	s.client = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
	}}
	return s, nil
}

// infer sends one request for pool sample i; id, if set, is its
// X-Request-Id on HTTP workloads.
func (s *stack) infer(ctx context.Context, i int, id string) (int, error) {
	if !s.w.http {
		return s.fleet.InferModel(ctx, fleet.DefaultModel, s.pool.xs[i])
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url, bytes.NewReader(s.pool.bodies[i]))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set("X-Request-Id", id)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		s.non2xx.Add(1)
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusServiceUnavailable, http.StatusTooManyRequests:
		return 0, fmt.Errorf("HTTP %d: %w", resp.StatusCode, fleet.ErrOverloaded)
	default:
		return 0, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var out struct {
		Label int `json:"label"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return 0, fmt.Errorf("decode reply: %w", err)
	}
	return out.Label, nil
}

func (s *stack) call(ctx context.Context, i int) (int, error) { return s.infer(ctx, i, "") }

// close stops the stack and waits for it: the HTTP server drains and closes
// the fleet, or the fleet closes directly.
func (s *stack) close() error {
	if s.srv == nil {
		return s.fleet.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	return err
}

// warmDur is the closed-loop warm-up every setup ends with.
const warmDur = 300 * time.Millisecond

// buildModel trains and deploys the model and, the first time, labels the
// pool with it. Labelling is not part of the timed setup.
func buildModel(ctx context.Context, w workload, pl *pool, t *setupTimes) (*core.Deployment, error) {
	res, err := trainModel(ctx, t)
	if err != nil {
		return nil, err
	}
	if !equalBits(res.Test.X.Data(), pl.split) {
		return nil, errors.New("the pool's draw does not extend the pipeline's test split")
	}
	t0 := time.Now()
	dep, err := deploy(w, res.TB)
	if err != nil {
		return nil, err
	}
	t.deploy = time.Since(t0).Seconds()
	// The pipeline is deterministic, so a later setup's model must answer
	// as the first one's did; a reply that does not counts as wrong.
	if pl.ref == nil {
		if pl.ref, err = references(dep, pl); err != nil {
			return nil, err
		}
	}
	return dep, nil
}

// startWarm starts a stack for dep and warms it up, timing both.
func startWarm(ctx context.Context, w workload, dep *core.Deployment, pl *pool, tracer *obs.Tracer, wrapTap func(fleet.RunTap) fleet.RunTap, t *setupTimes) (*stack, error) {
	t0 := time.Now()
	s, err := startStack(w, dep, pl, tracer, wrapTap)
	if err != nil {
		return nil, err
	}
	t.fleet = time.Since(t0).Seconds()
	t0 = time.Now()
	warm := runClosed(ctx, "warm-up", w.clients(), warmDur, samplePicks(0, 0, poolN), pl, s.call)
	t.warm = time.Since(t0).Seconds()
	if warm.failed() > 0 {
		s.close()
		return nil, fmt.Errorf("warm-up: %d of %d requests failed", warm.failed(), warm.sent)
	}
	return s, nil
}
