package model

import (
	"math"

	"repro/internal/tensor"
)

// Adam is the optimizer large NLP pretraining actually uses (the paper's
// baselines run Adam; 1-bit Adam in §2.3 compresses its communication).
// The reproduction offers it alongside SGD so optimizer choice can be
// ablated.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Eps     float64
	Clip    float64 // element-wise gradient clip; 0 = off
	step    int
	moments map[*tensor.Matrix]*adamState
}

type adamState struct {
	m, v *tensor.Matrix
}

// NewAdam returns an Adam optimizer with the GPT-2 defaults
// (β₁=0.9, β₂=0.999, ε=1e-8).
func NewAdam(lr, clip float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, Clip: clip,
		moments: make(map[*tensor.Matrix]*adamState)}
}

// Step applies one Adam update with bias correction. Gradients are not
// modified.
func (o *Adam) Step(params, grads []*tensor.Matrix) {
	if len(params) != len(grads) {
		panic("model: Adam params/grads length mismatch")
	}
	o.step++
	c1 := 1 - math.Pow(o.Beta1, float64(o.step))
	c2 := 1 - math.Pow(o.Beta2, float64(o.step))
	for i, p := range params {
		g := grads[i]
		st := o.moments[p]
		if st == nil {
			st = &adamState{m: tensor.New(g.Rows, g.Cols), v: tensor.New(g.Rows, g.Cols)}
			o.moments[p] = st
		}
		for j, gv := range g.Data {
			if o.Clip > 0 {
				gv = tensor.Clip(gv, o.Clip)
			}
			st.m.Data[j] = o.Beta1*st.m.Data[j] + (1-o.Beta1)*gv
			st.v.Data[j] = o.Beta2*st.v.Data[j] + (1-o.Beta2)*gv*gv
			mHat := st.m.Data[j] / c1
			vHat := st.v.Data[j] / c2
			p.Data[j] -= o.LR * mHat / (math.Sqrt(vHat) + o.Eps)
		}
	}
}

// StepCount returns the number of updates applied.
func (o *Adam) StepCount() int { return o.step }
