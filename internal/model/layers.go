// Package model implements the GPT stand-in used by the reproduction: an
// MLP language model with tied input/output embeddings, organized as a
// chain of residual blocks that can be partitioned into pipeline stages.
//
// The structural properties that matter to Optimus-CC are preserved
// exactly: inter-stage traffic is a dense B×H activation (forward) or
// activation-gradient (backward) matrix; the embedding table is shared by
// the first and last stages, so its gradients need synchronization (§6);
// every parameter has a dense gradient that data-parallel training must
// all-reduce.
//
// Because the 1F1B schedule keeps several micro-batches in flight per
// stage, every layer stores its forward activations in a FIFO queue;
// Backward consumes them in micro-batch order, exactly as pipeline
// frameworks stash per-micro-batch activation state.
package model

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Linear is a fully connected layer y = x·W + b.
type Linear struct {
	W, B   *tensor.Matrix // W: in×out, B: 1×out
	GW, GB *tensor.Matrix // gradients, accumulated across micro-batches
	xQueue []*tensor.Matrix
}

// NewLinear returns a Xavier-initialized in×out layer.
func NewLinear(rng *rand.Rand, in, out int) *Linear {
	return &Linear{
		W:  tensor.XavierInit(rng, in, out),
		B:  tensor.New(1, out),
		GW: tensor.New(in, out),
		GB: tensor.New(1, out),
	}
}

// Forward computes y = x·W + b and enqueues x for Backward.
func (l *Linear) Forward(x *tensor.Matrix) *tensor.Matrix {
	l.xQueue = append(l.xQueue, x)
	y := tensor.MatMul(x, l.W)
	for i := 0; i < y.Rows; i++ {
		row := y.Row(i)
		for j := range row {
			row[j] += l.B.Data[j]
		}
	}
	return y
}

// Backward accumulates parameter gradients from dy (for the oldest
// in-flight micro-batch) and returns dx.
func (l *Linear) Backward(dy *tensor.Matrix) *tensor.Matrix {
	if len(l.xQueue) == 0 {
		panic("model: Linear.Backward with no in-flight forward")
	}
	x := l.xQueue[0]
	l.xQueue = l.xQueue[1:]
	tensor.MatMulATAddInto(l.GW, x, dy)
	for i := 0; i < dy.Rows; i++ {
		row := dy.Row(i)
		for j := range row {
			l.GB.Data[j] += row[j]
		}
	}
	dx := tensor.New(x.Rows, x.Cols)
	tensor.MatMulBTInto(dx, dy, l.W)
	return dx
}

// InFlight reports the number of queued forward activations.
func (l *Linear) InFlight() int { return len(l.xQueue) }

// lnCache is the per-micro-batch forward state of a LayerNorm.
type lnCache struct {
	xHat   *tensor.Matrix
	invStd []float64
}

// LayerNorm normalizes each row to zero mean and unit variance, then
// applies a learned gain and bias. The paper's Eq. 14 argument relies on
// normalization driving activation averages to zero; LayerNorm provides it.
type LayerNorm struct {
	Gain, Bias   *tensor.Matrix // 1×dim
	GGain, GBias *tensor.Matrix
	queue        []lnCache
	dxh          []float64 // one row's normalized-input gradient, reused
}

const lnEps = 1e-5

// NewLayerNorm returns an identity-initialized LayerNorm over dim features.
func NewLayerNorm(dim int) *LayerNorm {
	ln := &LayerNorm{
		Gain:  tensor.New(1, dim),
		Bias:  tensor.New(1, dim),
		GGain: tensor.New(1, dim),
		GBias: tensor.New(1, dim),
	}
	ln.Gain.Fill(1)
	return ln
}

// Forward normalizes each row of x.
func (ln *LayerNorm) Forward(x *tensor.Matrix) *tensor.Matrix {
	y := tensor.New(x.Rows, x.Cols)
	c := lnCache{xHat: tensor.New(x.Rows, x.Cols), invStd: make([]float64, x.Rows)}
	d := float64(x.Cols)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		mu := tensor.Mean(row)
		var va float64
		for _, v := range row {
			dv := v - mu
			va += dv * dv
		}
		va /= d
		inv := 1 / math.Sqrt(va+lnEps)
		c.invStd[i] = inv
		xh := c.xHat.Row(i)
		yr := y.Row(i)
		for j, v := range row {
			h := (v - mu) * inv
			xh[j] = h
			yr[j] = h*ln.Gain.Data[j] + ln.Bias.Data[j]
		}
	}
	ln.queue = append(ln.queue, c)
	return y
}

// Backward accumulates gain/bias gradients and returns dx using the
// standard layer-norm backward formula. It overwrites dy with dx, row by
// row, and returns dy: callers pass a gradient they own and no longer
// need.
func (ln *LayerNorm) Backward(dy *tensor.Matrix) *tensor.Matrix {
	if len(ln.queue) == 0 {
		panic("model: LayerNorm.Backward with no in-flight forward")
	}
	c := ln.queue[0]
	ln.queue = ln.queue[1:]
	d := float64(dy.Cols)
	if cap(ln.dxh) < dy.Cols {
		ln.dxh = make([]float64, dy.Cols)
	}
	dxh := ln.dxh[:dy.Cols]
	for i := 0; i < dy.Rows; i++ {
		dyr := dy.Row(i)
		xh := c.xHat.Row(i)
		var sumDxh, sumDxhXh float64
		for j, g := range dyr {
			ln.GGain.Data[j] += g * xh[j]
			ln.GBias.Data[j] += g
			v := g * ln.Gain.Data[j]
			dxh[j] = v
			sumDxh += v
			sumDxhXh += v * xh[j]
		}
		// dxh and the two sums hold all this row needs from dyr.
		inv := c.invStd[i]
		for j := range dyr {
			dyr[j] = inv / d * (d*dxh[j] - sumDxh - xh[j]*sumDxhXh)
		}
	}
	return dy
}

// Block is one residual unit: y = x + GELU(LayerNorm(x·W + b)).
// Residual connections keep deep pipelines trainable; the block's dense
// H×H weight is the unit of data-parallel gradient compression.
type Block struct {
	Lin       *Linear
	LN        *LayerNorm
	gradQueue []*tensor.Matrix // GELU derivative at the LN output, per micro-batch
}

// NewBlock returns a residual block over hidden dim h.
func NewBlock(rng *rand.Rand, h int) *Block {
	return &Block{Lin: NewLinear(rng, h, h), LN: NewLayerNorm(h)}
}

// Forward runs the block.
func (b *Block) Forward(x *tensor.Matrix) *tensor.Matrix {
	z := b.Lin.Forward(x)
	n := b.LN.Forward(z)
	g := tensor.New(n.Rows, n.Cols)
	tensor.GELUWithGradInto(n, g)
	b.gradQueue = append(b.gradQueue, g)
	return n.Add(x)
}

// Backward runs the block's backward pass and returns dx.
func (b *Block) Backward(dy *tensor.Matrix) *tensor.Matrix {
	if len(b.gradQueue) == 0 {
		panic("model: Block.Backward with no in-flight forward")
	}
	dAct := b.gradQueue[0].Hadamard(dy)
	b.gradQueue = b.gradQueue[1:]
	dz := b.LN.Backward(dAct)
	dx := b.Lin.Backward(dz)
	return dx.Add(dy) // residual path
}

// Params returns the block's parameter matrices in a fixed order.
func (b *Block) Params() []*tensor.Matrix {
	return []*tensor.Matrix{b.Lin.W, b.Lin.B, b.LN.Gain, b.LN.Bias}
}

// Grads returns the gradient matrices aligned with Params.
func (b *Block) Grads() []*tensor.Matrix {
	return []*tensor.Matrix{b.Lin.GW, b.Lin.GB, b.LN.GGain, b.LN.GBias}
}

// String identifies the block size for debugging.
func (b *Block) String() string {
	return fmt.Sprintf("Block(h=%d)", b.Lin.W.Rows)
}
