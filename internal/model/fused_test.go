package model

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// The tests below pin the fused, allocation-lean layer paths bit-for-bit
// to the unfused sequences they replaced, kept here as test-local oracles.

// TestBlockForwardMatchesInferBlock checks the training forward (fused
// GELU, residual written into the activation) against the inference
// forward at tol 0 with several micro-batches in flight, and that the
// input is left untouched.
func TestBlockForwardMatchesInferBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := NewBlock(rng, 6)
	var xs []*tensor.Matrix
	for mb := 0; mb < 4; mb++ {
		x := tensor.RandN(rng, 3, 6, 2)
		xs = append(xs, x)
		keep := x.Clone()
		y := b.Forward(x)
		if !y.Equal(inferBlock(b, x), 0) {
			t.Fatalf("micro-batch %d: Forward differs from inferBlock", mb)
		}
		if !x.Equal(keep, 0) {
			t.Fatalf("micro-batch %d: Forward modified its input", mb)
		}
	}
	for range xs {
		b.Backward(tensor.RandN(rng, 3, 6, 1))
	}
	if len(b.gradQueue) != 0 || b.Lin.InFlight() != 0 {
		t.Fatal("Backward left in-flight state")
	}
}

// refLayerNormBackward is the unfused LayerNorm backward: dx in a fresh
// matrix, dy left as it was.
func refLayerNormBackward(gain, gGain, gBias *tensor.Matrix, c lnCache, dy *tensor.Matrix) *tensor.Matrix {
	dx := tensor.New(dy.Rows, dy.Cols)
	d := float64(dy.Cols)
	dxh := make([]float64, dy.Cols)
	for i := 0; i < dy.Rows; i++ {
		dyr := dy.Row(i)
		xh := c.xHat.Row(i)
		var sumDxh, sumDxhXh float64
		for j, g := range dyr {
			gGain.Data[j] += g * xh[j]
			gBias.Data[j] += g
			v := g * gain.Data[j]
			dxh[j] = v
			sumDxh += v
			sumDxhXh += v * xh[j]
		}
		inv := c.invStd[i]
		dxr := dx.Row(i)
		for j := range dxr {
			dxr[j] = inv / d * (d*dxh[j] - sumDxh - xh[j]*sumDxhXh)
		}
	}
	return dx
}

func TestLayerNormBackwardOverwritesDy(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ln := NewLayerNorm(5)
	ln.Gain = tensor.RandN(rng, 1, 5, 1)
	gGain, gBias := tensor.New(1, 5), tensor.New(1, 5)
	for mb := 0; mb < 3; mb++ {
		ln.Forward(tensor.RandN(rng, 4, 5, 3))
	}
	for mb := 0; mb < 3; mb++ {
		dy := tensor.RandN(rng, 4, 5, 1)
		want := refLayerNormBackward(ln.Gain, gGain, gBias, ln.queue[0], dy.Clone())
		if got := ln.Backward(dy); got != dy {
			t.Fatalf("micro-batch %d: Backward did not return dy", mb)
		}
		if !dy.Equal(want, 0) {
			t.Fatalf("micro-batch %d: dx differs from the unfused backward", mb)
		}
	}
	if !ln.GGain.Equal(gGain, 0) || !ln.GBias.Equal(gBias, 0) {
		t.Fatal("gain/bias gradients differ from the unfused backward")
	}
}

// refBlock runs a block the unfused way: the pre-GELU activation is
// cloned and queued, GELUGrad is evaluated in backward into a fresh dAct,
// and the residual sum is a clone of x.
type refBlock struct {
	*Block
	pre []*tensor.Matrix
}

func (r *refBlock) forward(x *tensor.Matrix) *tensor.Matrix {
	n := r.LN.Forward(r.Lin.Forward(x))
	r.pre = append(r.pre, n.Clone())
	return x.Clone().Add(tensor.GELU(n))
}

func (r *refBlock) backward(dy *tensor.Matrix) *tensor.Matrix {
	pre := r.pre[0]
	r.pre = r.pre[1:]
	dAct := tensor.New(dy.Rows, dy.Cols)
	for i, v := range pre.Data {
		dAct.Data[i] = dy.Data[i] * tensor.GELUGrad(v)
	}
	return r.Lin.Backward(r.LN.Backward(dAct)).Add(dy)
}

func TestBlockMatchesUnfusedReference(t *testing.T) {
	b := NewBlock(rand.New(rand.NewSource(7)), 6)
	ref := refBlock{Block: NewBlock(rand.New(rand.NewSource(7)), 6)}
	rng := rand.New(rand.NewSource(8))
	const inFlight = 3
	var dys []*tensor.Matrix
	for mb := 0; mb < inFlight; mb++ {
		x := tensor.RandN(rng, 4, 6, 2)
		if !b.Forward(x).Equal(ref.forward(x), 0) {
			t.Fatalf("micro-batch %d: forward differs", mb)
		}
		dys = append(dys, tensor.RandN(rng, 4, 6, 1))
	}
	for mb, dy := range dys {
		keep := dy.Clone()
		got := b.Backward(dy)
		if !dy.Equal(keep, 0) {
			t.Fatalf("micro-batch %d: Backward modified dy", mb)
		}
		if !got.Equal(ref.backward(dy), 0) {
			t.Fatalf("micro-batch %d: dx differs", mb)
		}
	}
	for i, g := range b.Grads() {
		if !g.Equal(ref.Grads()[i], 0) {
			t.Fatalf("gradient %d differs", i)
		}
	}
}

// refSGDStep is the unfused SGD update: clone and clip the gradient,
// scale the velocity, add, then axpy into the parameter.
func refSGDStep(o *SGD, params, grads []*tensor.Matrix) {
	for i, p := range params {
		eff := grads[i]
		if o.Clip > 0 {
			eff = eff.Clone()
			tensor.ClipInPlace(eff, o.Clip)
		}
		if o.Momentum > 0 {
			v := o.velocity[p]
			if v == nil {
				v = tensor.New(eff.Rows, eff.Cols)
				o.velocity[p] = v
			}
			v.Scale(o.Momentum).Add(eff)
			eff = v
		}
		p.AddScaled(-o.LR, eff)
	}
}

func sameBits(a, b *tensor.Matrix) bool {
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return len(a.Data) == len(b.Data)
}

func TestSGDStepMatchesUnfusedSequence(t *testing.T) {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 7, -7, math.Copysign(0, -1)}
	for _, clip := range []float64{0, 0.5} {
		for _, mu := range []float64{0, 0.9} {
			rng := rand.New(rand.NewSource(9))
			shapes := [][2]int{{3, 4}, {1, 5}, {6, 1}}
			var got, want, grads []*tensor.Matrix
			for _, sh := range shapes {
				p := tensor.RandN(rng, sh[0], sh[1], 1)
				got, want = append(got, p), append(want, p.Clone())
				grads = append(grads, tensor.New(sh[0], sh[1]))
			}
			fused, ref := NewSGD(0.3, mu, clip), NewSGD(0.3, mu, clip)
			for step := 0; step < 5; step++ {
				for k, g := range grads {
					for j := range g.Data {
						g.Data[j] = rng.NormFloat64() * 2
					}
					// One special value per step, in a different place
					// each time, so most of each matrix stays finite.
					g.Data[(step+k)%len(g.Data)] = specials[(step+k)%len(specials)]
				}
				keep := make([]*tensor.Matrix, len(grads))
				for k, g := range grads {
					keep[k] = g.Clone()
				}
				fused.Step(got, grads)
				refSGDStep(ref, want, grads)
				for k := range got {
					if !sameBits(grads[k], keep[k]) {
						t.Fatalf("clip=%v μ=%v step %d: gradient %d modified", clip, mu, step, k)
					}
					if !sameBits(got[k], want[k]) {
						t.Fatalf("clip=%v μ=%v step %d: param %d differs", clip, mu, step, k)
					}
					if mu > 0 && !sameBits(fused.Velocity(got[k]), ref.Velocity(want[k])) {
						t.Fatalf("clip=%v μ=%v step %d: velocity %d differs", clip, mu, step, k)
					}
				}
			}
		}
	}
}

func TestSGDStepZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	params := []*tensor.Matrix{tensor.RandN(rng, 48, 48, 1), tensor.RandN(rng, 1, 48, 1)}
	grads := []*tensor.Matrix{tensor.RandN(rng, 48, 48, 1), tensor.RandN(rng, 1, 48, 1)}
	opt := NewSGD(0.1, 0.9, 0.5)
	opt.Step(params, grads) // creates the velocity buffers
	if n := testing.AllocsPerRun(20, func() { opt.Step(params, grads) }); n != 0 {
		t.Fatalf("SGD.Step with clip and momentum: %v allocs/op after the first call, want 0", n)
	}
}

// blockStepAllocs is the exact allocation count of one steady-state
// Block forward+backward with one micro-batch in flight. A matrix is two
// allocations (header and data), and each per-micro-batch queue re-grows
// by one slot per pass. The unfused block needed 20: it also cloned the
// pre-GELU activation and x in forward, and allocated dAct and
// LayerNorm's dx in backward.
const blockStepAllocs = 2 + // Linear output
	2 + 2 + 1 + // LayerNorm output, xHat, invStd
	2 + // GELU derivative
	3 + // one slot in each of the Linear, LayerNorm and Block queues
	2 // Linear.Backward's dx

func TestBlockStepAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := NewBlock(rng, 48)
	x, dy := tensor.RandN(rng, 32, 48, 1), tensor.RandN(rng, 32, 48, 1)
	step := func() {
		b.Forward(x)
		b.Backward(dy)
	}
	step()
	if n := testing.AllocsPerRun(20, step); n != blockStepAllocs {
		t.Fatalf("Block forward+backward: %v allocs, want %d", n, blockStepAllocs)
	}
}
