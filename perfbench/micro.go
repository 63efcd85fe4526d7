package main

import (
	"errors"
	"fmt"
	"time"

	"tbnet/internal/core"
	"tbnet/internal/nn"
	"tbnet/internal/profile"
	"tbnet/internal/tensor"
	"tbnet/internal/zoo"
)

// microBatch is the batch size of the layer timings: a full MaxBatch batch.
const microBatch = 8

// medianUs times fn after one warm-up call: at least 20 calls and 50 ms,
// at most 2000 calls. It returns the median call in microseconds.
func medianUs(fn func()) float64 {
	fn()
	var xs []float64
	start := time.Now()
	for len(xs) < 2000 && (len(xs) < 20 || time.Since(start) < 50*time.Millisecond) {
		t0 := time.Now()
		fn()
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(xs)
}

// batchOf stacks the first n pool samples into one [n,3,16,16] tensor.
func batchOf(pl *pool, n int) *tensor.Tensor {
	x := tensor.New(n, 3, 16, 16)
	per := pl.xs[0].Size()
	for i := 0; i < n; i++ {
		copy(x.Data()[i*per:], pl.xs[i].Data())
	}
	return x
}

// branches returns private copies of the deployed branches in the form the
// deployment executes them: float32, or realized int8.
func branches(dep *core.Deployment) (mr, mt *zoo.Model, err error) {
	qmr, qmt := dep.Quantized()
	if qmr == nil {
		tb := dep.Snapshot()
		return tb.MR, tb.MT, nil
	}
	if mr, err = qmr.Realize(); err != nil {
		return nil, nil, err
	}
	mt, err = qmt.Realize()
	return mr, mt, err
}

// microLayers times, on a private replica of dep, the deployment call, each
// branch stage, and the stage-0 kernels at batch 8, and adds the metrics to v.
func microLayers(dep *core.Deployment, pl *pool, v map[string]float64) error {
	rep, err := dep.Replicate(microBatch)
	if err != nil {
		return err
	}
	x1, x8 := batchOf(pl, 1), batchOf(pl, microBatch)
	labels := make([]int, microBatch)
	for _, b := range []struct {
		suffix string
		x      *tensor.Tensor
	}{{"b1", x1}, {"b8", x8}} {
		var err error
		v["core.infer_us."+b.suffix] = medianUs(func() { _, err = rep.InferInto(b.x, labels) })
		if err != nil {
			return err
		}
		meter := rep.Enclave.Meter()
		lat, switches, bytes := rep.Latency(), meter.Switches(), meter.TransferredBytes()
		if _, err := rep.InferInto(b.x, labels); err != nil {
			return err
		}
		v["core.modeled_ms."+b.suffix] = (rep.Latency() - lat) * 1e3
		if b.suffix == "b1" {
			v["tee.switches.b1"] = float64(meter.Switches() - switches)
			v["tee.transfer_kb.b1"] = float64(meter.TransferredBytes()-bytes) / 1024
		}
	}

	mr, mt, err := branches(dep)
	if err != nil {
		return err
	}
	if len(mr.Stages) != stageCount || len(mt.Stages) != stageCount {
		return fmt.Errorf("branches have %d/%d stages, want %d", len(mr.Stages), len(mt.Stages), stageCount)
	}
	var mflop float64
	for _, br := range []struct {
		name string
		m    *zoo.Model
	}{{"mr", mr}, {"mt", mt}} {
		a := nn.NewArena()
		x := x8
		for i, s := range br.m.Stages {
			out := tensor.New(s.OutShape(x.Shape())...)
			v[fmt.Sprintf("zoo.%s.s%d_us", br.name, i)] = medianUs(func() { s.InferInto(out, x, a) })
			x = out
		}
		if br.name == "mt" {
			logits := tensor.New(microBatch, br.m.Classes)
			v["zoo.mt.head_us"] = medianUs(func() { br.m.Head.InferInto(logits, x, a) })
		}
		mflop += profile.Profile(br.m, x8.Shape()).TotalFlops() / 1e6
	}
	v["zoo.mflop.b8"] = mflop

	b0, ok := mr.Stages[0].(*zoo.ConvBlock)
	if !ok {
		return errors.New("M_R stage 0 is not a conv block")
	}
	kernelTimings(b0, x8, v)
	return nil
}

// kernelTimings times the kernels and layers of one conv block at its input
// x, as the batched inference path runs them: per sample for the conv
// lowering and GEMMs, over the whole batch for the elementwise layers.
// Bytes moved are computed from the tensor sizes each call reads and writes.
func kernelTimings(b *zoo.ConvBlock, x *tensor.Tensor, v map[string]float64) {
	c := b.Conv
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh := tensor.ConvOutDim(h, c.KH, c.Stride, c.Pad)
	ow := tensor.ConvOutDim(w, c.KW, c.Stride, c.Pad)
	hw, rows, in := oh*ow, c.InC*c.KH*c.KW, c.InC*h*w
	xd, wd := x.Data(), c.W.Value.Data()
	cols := make([]float32, rows*hw)
	out := make([]float32, c.OutC*hw)
	qw, qin, qcols := make([]int8, len(wd)), make([]int8, n*in), make([]int8, rows*hw)
	acc := make([]int32, c.OutC*hw)
	tensor.QuantizeI8(wd, tensor.QuantScale(tensor.MaxAbs(wd)), qw)
	tensor.QuantizeI8(xd, tensor.QuantScale(tensor.MaxAbs(xd)), qin)

	gemmFlop := 2 * float64(n*c.OutC*hw*rows)
	set := func(k string, us, flop, bytes float64) {
		v[k+"_us"], v[k+"_mflop"], v[k+"_mb"] = us, flop/1e6, bytes/1e6
	}
	set("tensor.im2col", medianUs(func() {
		for i := 0; i < n; i++ {
			tensor.Im2Col(xd[i*in:(i+1)*in], c.InC, h, w, c.KH, c.KW, c.Stride, c.Pad, cols)
		}
	}), 0, float64(n*(in+rows*hw)*4))
	set("tensor.matmul", medianUs(func() {
		for i := 0; i < n; i++ {
			tensor.GemmSerial(out, wd, cols, c.OutC, hw, rows)
		}
	}), gemmFlop, float64(n*(len(wd)+rows*hw+c.OutC*hw)*4))
	set("tensor.gemm_i8", medianUs(func() {
		for i := 0; i < n; i++ {
			tensor.GemmI8Serial(acc, qw, qcols, c.OutC, hw, rows)
		}
	}), gemmFlop, float64(n*(len(qw)+rows*hw+c.OutC*hw*4)))
	set("quant.im2row_i8", medianUs(func() {
		for i := 0; i < n; i++ {
			tensor.Im2RowI8(qin[i*in:(i+1)*in], c.InC, h, w, c.KH, c.KW, c.Stride, c.Pad, qcols)
		}
	}), 0, float64(n*(in+rows*hw)))

	// The elementwise layers run on a conv output of this block.
	y := tensor.New(n, c.OutC, oh, ow)
	c.ForwardInto(y, x, nn.NewArena())
	dst := tensor.New(y.Shape()...)
	size := float64(y.Size())
	set("nn.batchnorm", medianUs(func() { b.BN.ForwardInto(dst, y, nil) }), 4*size, 2*size*4)
	set("nn.relu", medianUs(func() { b.Act.ForwardInto(dst, y, nil) }), size, 2*size*4)
	pooled := tensor.New(n, c.OutC, oh/2, ow/2)
	pool := nn.NewMaxPool2D("bench.pool", 2)
	set("nn.maxpool", medianUs(func() { pool.ForwardInto(pooled, y, nil) }), size, (size+size/4)*4)
}
