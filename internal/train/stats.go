package train

import (
	"repro/internal/tensor"
)

// StatsWindow is the default number of per-send samples each Stats
// series retains. The series themselves are bounded — a long run would
// otherwise grow them without limit, one float64 per compressed send —
// while the Summary aggregates stay exact over every record ever made
// (running count + Σ|x| per series, not a windowed approximation).
const StatsWindow = 4096

// Stats collects the Fig. 11 evidence for the Eq. 14 conditions: the
// compression error ε⁽ⁱ⁾ has near-zero mean, consecutive-micro-batch
// activation differences Y⁽ⁱ⁾−Y⁽ⁱ⁺ⁿ⁾ have near-zero mean, and the two are
// uncorrelated (cosine similarity around zero).
//
// The exported series hold the most recent StatsWindow samples each
// (oldest discarded); Summary and Count cover the full history.
type Stats struct {
	EpsMean     []float64 // Avg(ε⁽ⁱ⁾) per compressed send (last window)
	ActDiffMean []float64 // Avg(Y⁽ⁱ⁾−Y⁽ⁱ⁺ⁿ⁾) per consecutive pair (last window)
	Cosine      []float64 // cos(ε⁽ⁱ⁾, Y⁽ⁱ⁾−Y⁽ⁱ⁺ⁿ⁾) (last window)

	window                          int
	epsN, actN, cosN                int64
	epsSumAbs, actSumAbs, cosSumAbs float64

	prevAct *tensor.Matrix
	prevErr *tensor.Matrix
}

// NewStats returns an empty collector with the default window.
func NewStats() *Stats { return &Stats{window: StatsWindow} }

// SetWindow overrides the per-series retention (n ≥ 1; tests use small
// windows to exercise the cap). Call before recording.
func (st *Stats) SetWindow(n int) {
	if n < 1 {
		n = 1
	}
	st.window = n
}

// Count returns how many compressed sends have been recorded in total —
// use this, not len(EpsMean), for progress reporting: the series is
// windowed.
func (st *Stats) Count() int64 { return st.epsN }

// appendBounded appends v, discarding the oldest sample beyond the
// window, and feeds the series' exact running aggregates.
func (st *Stats) appendBounded(series *[]float64, v float64, n *int64, sumAbs *float64) {
	*n++
	if v < 0 {
		*sumAbs -= v
	} else {
		*sumAbs += v
	}
	s := *series
	if len(s) >= st.window {
		// Shift within the existing array: the window is small and this
		// keeps the slice allocation-stable at capacity == window.
		copy(s, s[len(s)-st.window+1:])
		s = s[:st.window-1]
	}
	*series = append(s, v)
}

// Record logs one compressed backward send: g is the true activation
// gradient, recon its reconstruction, act the forward activation at the
// same boundary.
func (st *Stats) Record(g, recon, act *tensor.Matrix) {
	err := g.Clone()
	err.Sub(recon)
	st.appendBounded(&st.EpsMean, err.Mean(), &st.epsN, &st.epsSumAbs)
	if st.prevAct != nil && st.prevAct.Rows == act.Rows && st.prevAct.Cols == act.Cols {
		diff := st.prevAct.Clone()
		diff.Sub(act)
		st.appendBounded(&st.ActDiffMean, diff.Mean(), &st.actN, &st.actSumAbs)
		st.appendBounded(&st.Cosine, tensor.CosineSimilarity(st.prevErr.Data, diff.Data), &st.cosN, &st.cosSumAbs)
	}
	st.prevAct = act.Clone()
	st.prevErr = err
}

// Summary returns the mean absolute values of the three series — the
// numbers Fig. 11 shows hovering near zero — computed over every record
// ever made, not just the retained window.
func (st *Stats) Summary() (epsMeanAbs, actDiffMeanAbs, cosineAbs float64) {
	return ratio(st.epsSumAbs, st.epsN), ratio(st.actSumAbs, st.actN), ratio(st.cosSumAbs, st.cosN)
}

func ratio(sum float64, n int64) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MemoryBreakdown is the Fig. 12 accounting: bytes per component on one
// pipeline stage of one replica, at float64 precision (the trainer's
// native width).
type MemoryBreakdown struct {
	ParamBytes      int64 // weights
	GradBytes       int64 // gradient accumulators
	OptimizerBytes  int64 // momentum state
	ActivationBytes int64 // peak in-flight activation stash (1F1B)
	LowRankBytes    int64 // P/Q factor buffers for compression
	ResidualBytes   int64 // lazy-error-propagation residuals
}

// Total sums all components.
func (m MemoryBreakdown) Total() int64 {
	return m.ParamBytes + m.GradBytes + m.OptimizerBytes + m.ActivationBytes +
		m.LowRankBytes + m.ResidualBytes
}

// MemoryPerStage returns the Fig. 12 breakdown for each stage of replica 0.
func (t *Trainer) MemoryPerStage() []MemoryBreakdown {
	cfg := t.cfg
	out := make([]MemoryBreakdown, cfg.Stages)
	b := cfg.MicroBatch
	h := cfg.Model.Hidden
	actPerMicroPerBlock := int64(3*b*h) * 8 // linear input, LN xHat, GELU derivative
	for s, stage := range t.replicas[0] {
		var mb MemoryBreakdown
		mb.ParamBytes = stage.ParamBytes(8)
		mb.GradBytes = mb.ParamBytes
		mb.OptimizerBytes = mb.ParamBytes // momentum mirrors parameters
		peak := int64(t.sched.PeakInFlight(s))
		mb.ActivationBytes = peak * actPerMicroPerBlock * int64(len(stage.Blocks))
		if cfg.Opt.CompressBackprop && s > 0 {
			r := cfg.Opt.CBRank
			if r > b {
				r = b
			}
			mb.LowRankBytes = int64(r*(b+h)) * 8 // P (b×r) + Q (h×r)
			if cfg.Opt.LazyErrorPropagation {
				mb.ResidualBytes = t.cb[0][s].ResidualBytes()
				if mb.ResidualBytes == 0 {
					mb.ResidualBytes = int64(b*h) * 8 // pre-first-send estimate
				}
			}
		}
		out[s] = mb
	}
	return out
}
