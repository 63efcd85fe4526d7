package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tbnet/internal/fleet"
	"tbnet/internal/obs"
	"tbnet/internal/tee"
)

// The benchmark's own span names: one around each public call it makes.
const (
	spanHTTP  = "httpd.post"   // POST /v1/infer round trip
	spanFleet = "fleet.infer"  // Fleet.InferModel
	spanTap   = "seceval.tap"  // seceval.Tap.TapRun, one per protocol run
	traceRing = 1 << 14        // obs.Tracer slots: more than one traced phase sends
	spansOut  = ".bench_build" // where the spans are written at the end
)

// span is one recorded call. Request spans carry the request id the
// program's own obs spans are keyed by; a tap span serves a whole batch and
// carries its node instead.
type span struct {
	Phase string  `json:"phase"`
	ID    int64   `json:"id,omitempty"`
	Name  string  `json:"name"`
	Node  string  `json:"node,omitempty"`
	Start float64 `json:"start_us"`
	Dur   float64 `json:"dur_us"`
	// Server is the program's obs span for this request, joined by id.
	Server *obs.SpanData `json:"server,omitempty"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(name, node string, id int64, start time.Time) {
	s := span{ID: id, Name: name, Node: node,
		Start: float64(start.Sub(r.epoch).Nanoseconds()) / 1e3, Dur: float64(time.Since(start).Nanoseconds()) / 1e3}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the spans recorded since the last take, labelled with phase.
func (r *recorder) take(phase string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = make([]span, 0, len(out))
	for i := range out {
		out[i].Phase = phase
	}
	return out
}

// timedTap wraps the fleet's tap to time each TapRun.
type timedTap struct {
	fleet.RunTap
	rec *recorder
}

func (t timedTap) TapRun(node string, device tee.Device, model string, batch int, view []tee.Event) float64 {
	start := time.Now()
	ov := t.RunTap.TapRun(node, device, model, batch, view)
	t.rec.add(spanTap, node, 0, start)
	return ov
}

// tracedCall sends a request as s.call does, under a fresh request id: as
// X-Request-Id over HTTP, or as an obs span the serving layers annotate
// in-process.
func tracedCall(s *stack, rec *recorder) caller {
	return func(ctx context.Context, sample int) (int, error) {
		id := rec.ids.Add(1)
		rid := "pb-" + strconv.FormatInt(id, 10)
		start := time.Now()
		if s.w.http {
			label, err := s.infer(ctx, sample, rid)
			rec.add(spanHTTP, "", id, start)
			return label, err
		}
		ref := s.tracer.Start(rid)
		label, err := s.infer(obs.ContextWith(ctx, ref), sample, "")
		ref.Finish(err != nil)
		rec.add(spanFleet, "", id, start)
		return label, err
	}
}

// join attaches each request span's obs span from the tracer's ring.
func join(spans []span, tr *obs.Tracer) {
	byID := map[string]*obs.SpanData{}
	for _, d := range tr.Snapshot(0, 0) {
		byID[d.ID] = &d
	}
	for i := range spans {
		if spans[i].ID != 0 {
			spans[i].Server = byID["pb-"+strconv.FormatInt(spans[i].ID, 10)]
		}
	}
}

// collect gathers one value per span named name (all spans if name is "").
func collect(spans []span, name string, f func(span) (float64, bool)) []float64 {
	var out []float64
	for _, s := range spans {
		if name != "" && s.Name != name {
			continue
		}
		if v, ok := f(s); ok {
			out = append(out, v)
		}
	}
	return out
}

func durMs(s span) (float64, bool) { return s.Dur / 1e3, true }

// stage reads one obs stage of a joined request span.
func stage(name string) func(span) (float64, bool) {
	return func(s span) (float64, bool) {
		if s.Server == nil {
			return 0, false
		}
		return s.Server.StageMs(name), true
	}
}

// traced is the per-layer run: one setup, an untraced open phase (the
// baseline for the tracing overhead, the generator's timeliness and the Go
// runtime counts), a traced open and closed phase on a fresh stack of the
// same model with the program's tracer on, then layer timings on a private
// replica.
func traced(ctx context.Context, w workload, seed uint64, dur time.Duration, stderr io.Writer) (*report, error) {
	pl, err := newPool()
	if err != nil {
		return nil, err
	}
	var t setupTimes
	dep, err := buildModel(ctx, w, pl, &t)
	if err != nil {
		return nil, err
	}
	plain, err := startWarm(ctx, w, dep, pl, nil, nil, &t)
	if err != nil {
		return nil, err
	}
	openDur := time.Duration(float64(dur) * openShare)
	sched := poissonSchedule(seed, w.openRPS, openDur)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	base, _, _ := measure(plain, func() *phase { return runOpen(ctx, "open untraced", sched, pl, plain.call) }, stderr)
	runtime.ReadMemStats(&m1)
	if err := plain.close(); err != nil {
		return nil, err
	}

	rec := &recorder{epoch: time.Now()}
	tracer := obs.NewTracer(traceRing)
	var discard setupTimes
	s, err := startWarm(ctx, w, dep, pl, tracer, func(tap fleet.RunTap) fleet.RunTap { return timedTap{tap, rec} }, &discard)
	if err != nil {
		return nil, err
	}
	rec.take("warm-up")
	call := tracedCall(s, rec)
	runtime.GC()
	open, od, openLag := measure(s, func() *phase { return runOpen(ctx, "open traced", sched, pl, call) }, stderr)
	openSpans := rec.take("open")
	join(openSpans, tracer)
	closed, cd, closedLag := measure(s, func() *phase {
		return runClosed(ctx, "closed traced", w.clients(), dur-openDur, samplePicks(seed, 3, 4*poolN), pl, call)
	}, stderr)
	closedSpans := rec.take("closed")
	join(closedSpans, tracer)
	if err := s.close(); err != nil {
		return nil, err
	}

	sent := float64(base.sent)
	v := map[string]float64{
		"loadgen.late_ms.p99":  quantile(base.lateMs, 0.99),
		"loadgen.late_ms.max":  quantile(base.lateMs, 1),
		"loadgen.inflight.max": float64(base.inflightMax),
		"pipeline.victim_s":    t.victim, "pipeline.transfer_s": t.transfer,
		"pipeline.prune_s": t.prune, "pipeline.finalize_s": t.finalize,
		"setup.deploy_s": t.deploy, "setup.fleet_s": t.fleet, "setup.warm_s": t.warm,
		"obs.trace_overhead_pct": (median(open.latMs)/median(base.latMs) - 1) * 100,
		"go.allocs_per_req":      float64(m1.Mallocs-m0.Mallocs) / sent,
		"go.bytes_per_req":       float64(m1.TotalAlloc-m0.TotalAlloc) / sent,
		"go.gc_cycles":           float64(m1.NumGC - m0.NumGC),
		"go.gc_pause_ms":         float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
	}

	// Latency layers are read from the open phase, the one p50_ms
	// describes; counts cover both traced phases.
	httpMs := collect(openSpans, spanHTTP, durMs)
	fleetMs := collect(openSpans, spanFleet, durMs)
	v["httpd.call_ms.p50"], v["httpd.call_ms.p99"] = quantile(httpMs, 0.5), quantile(httpMs, 0.99)
	v["httpd.ingress_ms.p50"] = quantile(collect(openSpans, spanHTTP, stage("ingress")), 0.5)
	v["httpd.respond_ms.p50"] = quantile(collect(openSpans, spanHTTP, stage("respond")), 0.5)
	v["httpd.outside_span_ms.p50"] = quantile(collect(openSpans, spanHTTP, func(s span) (float64, bool) {
		if s.Server == nil {
			return 0, false
		}
		return s.Dur/1e3 - s.Server.WallMs, true
	}), 0.5)
	v["httpd.req_bytes"] = 0
	if w.http {
		for _, a := range sched {
			v["httpd.req_bytes"] += float64(len(pl.bodies[a.sample])) / float64(len(sched))
		}
	}
	v["httpd.non2xx"] = float64(s.non2xx.Load())
	v["fleet.call_ms.p50"], v["fleet.call_ms.p99"] = quantile(fleetMs, 0.5), quantile(fleetMs, 0.99)
	var routed int64
	for _, n := range od.routed {
		routed += n
	}
	for _, n := range cd.routed {
		routed += n
	}
	for _, dev := range []string{"rpi3", "sgx-desktop"} {
		v["fleet.routed_share."+dev] = float64(od.routed[dev]+cd.routed[dev]) / float64(routed)
	}
	v["fleet.shed"] = float64(od.shed + cd.shed)
	v["serve.queue_ms.p50"] = quantile(collect(openSpans, "", stage("queued")), 0.5)
	v["serve.queue_ms.p99"] = quantile(collect(openSpans, "", stage("queued")), 0.99)
	v["serve.batch_ms.p50"] = quantile(collect(openSpans, "", stage("batched")), 0.5)
	v["serve.mean_batch.open"] = float64(od.requests) / float64(od.batches)
	v["serve.mean_batch.closed"] = float64(cd.requests) / float64(cd.batches)
	v["serve.host_us_per_sample"] = (od.hostNs + cd.hostNs) / float64(od.requests+cd.requests) / 1e3
	v["serve.stats_lag"] = float64(openLag + closedLag)
	v["core.ree_ms.p50"] = quantile(collect(openSpans, "", stage("ree")), 0.5)
	v["core.tee_ms.p50"] = quantile(collect(openSpans, "", stage("tee")), 0.5)
	tapUs := collect(append(openSpans, closedSpans...), spanTap, func(s span) (float64, bool) { return s.Dur, true })
	v["seceval.tap_us.p50"], v["seceval.tap_us.p99"] = quantile(tapUs, 0.5), quantile(tapUs, 0.99)
	v["seceval.modeled_overhead_us"] = 0
	if s.tap != nil {
		v["seceval.modeled_overhead_us"] = s.tap.OverheadSeconds() / float64(s.tap.TotalRuns()) * 1e6
	}
	if err := microLayers(dep, pl, v); err != nil {
		return nil, err
	}
	if err := writeSpans(w, seed, append(openSpans, closedSpans...), stderr); err != nil {
		return nil, err
	}
	return newReport(perLayerMetrics, v, base, open, closed)
}

// writeSpans writes the recorded spans as JSON lines.
func writeSpans(w workload, seed uint64, spans []span, stderr io.Writer) error {
	if err := os.MkdirAll(spansOut, 0o755); err != nil {
		return err
	}
	path := filepath.Join(spansOut, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "%d spans written to %s\n", len(spans), path)
	return nil
}
