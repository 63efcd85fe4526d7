package main

import "fmt"

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	name, unit string
}

// endToEndMetrics are printed by every untraced run.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"throughput_rps", "req/s"},
	{"success_ratio", "ratio"},
	{"accuracy", "ratio"},
	{"modeled_mean_ms", "ms"},
	{"max_rss_mb", "MB"},
}

// stageCount is the number of stages of the default VGG18-S branches.
const stageCount = 8

// kernels are the kernel and layer timings taken at the M_R stage-0 shape.
var kernels = []string{"tensor.im2col", "tensor.matmul", "tensor.gemm_i8", "quant.im2row_i8",
	"nn.batchnorm", "nn.relu", "nn.maxpool"}

// perLayerMetrics are printed by every traced run, on every workload. A
// layer a workload does not pass through reads 0.
var perLayerMetrics = func() []metricDef {
	defs := []metricDef{
		{"loadgen.late_ms.p99", "ms"}, {"loadgen.late_ms.max", "ms"}, {"loadgen.inflight.max", "count"},
		{"pipeline.victim_s", "s"}, {"pipeline.transfer_s", "s"}, {"pipeline.prune_s", "s"}, {"pipeline.finalize_s", "s"},
		{"setup.deploy_s", "s"}, {"setup.fleet_s", "s"}, {"setup.warm_s", "s"},
		{"httpd.call_ms.p50", "ms"}, {"httpd.call_ms.p99", "ms"}, {"httpd.ingress_ms.p50", "ms"},
		{"httpd.respond_ms.p50", "ms"}, {"httpd.outside_span_ms.p50", "ms"}, {"httpd.req_bytes", "B"},
		{"httpd.non2xx", "count"},
		{"fleet.call_ms.p50", "ms"}, {"fleet.call_ms.p99", "ms"}, {"fleet.routed_share.rpi3", "ratio"},
		{"fleet.routed_share.sgx-desktop", "ratio"}, {"fleet.shed", "count"},
		{"serve.queue_ms.p50", "ms"}, {"serve.queue_ms.p99", "ms"}, {"serve.batch_ms.p50", "ms"},
		{"serve.mean_batch.open", "count"}, {"serve.mean_batch.closed", "count"},
		{"serve.host_us_per_sample", "us"}, {"serve.stats_lag", "count"},
		{"core.ree_ms.p50", "ms"}, {"core.tee_ms.p50", "ms"}, {"core.infer_us.b1", "us"}, {"core.infer_us.b8", "us"},
		{"core.modeled_ms.b1", "ms"}, {"core.modeled_ms.b8", "ms"}, {"tee.switches.b1", "count"},
		{"tee.transfer_kb.b1", "KB"},
	}
	for _, branch := range []string{"mr", "mt"} {
		for i := 0; i < stageCount; i++ {
			defs = append(defs, metricDef{fmt.Sprintf("zoo.%s.s%d_us", branch, i), "us"})
		}
	}
	defs = append(defs, metricDef{"zoo.mt.head_us", "us"}, metricDef{"zoo.mflop.b8", "MFLOP"})
	for _, k := range kernels {
		defs = append(defs, metricDef{k + "_us", "us"}, metricDef{k + "_mflop", "MFLOP"}, metricDef{k + "_mb", "MB"})
	}
	return append(defs,
		metricDef{"seceval.tap_us.p50", "us"}, metricDef{"seceval.tap_us.p99", "us"},
		metricDef{"seceval.modeled_overhead_us", "us"},
		metricDef{"obs.trace_overhead_pct", "%"},
		metricDef{"go.allocs_per_req", "count"}, metricDef{"go.bytes_per_req", "B"},
		metricDef{"go.gc_cycles", "count"}, metricDef{"go.gc_pause_ms", "ms"},
	)
}()
