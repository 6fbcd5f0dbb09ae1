package model

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func testCfg() Config {
	return Config{Vocab: 11, Hidden: 6, Context: 3, Blocks: 4, Seed: 42}
}

func randBatch(rng *rand.Rand, cfg Config, b int) ([][]int, []int) {
	ctxs := make([][]int, b)
	tgts := make([]int, b)
	for i := range ctxs {
		ctx := make([]int, cfg.Context)
		for j := range ctx {
			ctx[j] = rng.Intn(cfg.Vocab)
		}
		ctxs[i] = ctx
		tgts[i] = rng.Intn(cfg.Vocab)
	}
	return ctxs, tgts
}

func TestConfigValidate(t *testing.T) {
	good := testCfg()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []Config{
		{Vocab: 1, Hidden: 4, Context: 2, Blocks: 2},
		{Vocab: 4, Hidden: 0, Context: 2, Blocks: 2},
		{Vocab: 4, Hidden: 4, Context: 0, Blocks: 2},
		{Vocab: 4, Hidden: 4, Context: 2, Blocks: 0},
	}
	for i, b := range bads {
		if b.Validate() == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestNewStagesPartition(t *testing.T) {
	cfg := testCfg()
	stages, err := NewStages(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 3 {
		t.Fatalf("got %d stages", len(stages))
	}
	total := 0
	for _, s := range stages {
		total += len(s.Blocks)
	}
	if total != cfg.Blocks {
		t.Fatalf("blocks lost: %d != %d", total, cfg.Blocks)
	}
	if stages[0].Emb == nil || stages[0].InProj == nil {
		t.Fatal("first stage missing embedding/input projection")
	}
	if stages[2].OutEmb == nil || stages[2].OutLN == nil {
		t.Fatal("last stage missing head")
	}
	if stages[1].Emb != nil || stages[1].OutEmb != nil {
		t.Fatal("middle stage must not hold embeddings")
	}
}

func TestNewStagesErrors(t *testing.T) {
	cfg := testCfg()
	if _, err := NewStages(cfg, 0); err == nil {
		t.Fatal("0 stages accepted")
	}
	if _, err := NewStages(cfg, cfg.Blocks+1); err == nil {
		t.Fatal("more stages than blocks accepted")
	}
	if _, err := NewStages(Config{}, 1); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestTiedEmbeddingReplicasStartIdentical(t *testing.T) {
	stages, err := NewStages(testCfg(), 4)
	if err != nil {
		t.Fatal(err)
	}
	w0 := stages[0].EmbeddingWeight()
	wL := stages[3].EmbeddingWeight()
	if w0 == wL {
		t.Fatal("replicas must be distinct matrices under pipeline parallelism")
	}
	if !w0.Equal(wL, 0) {
		t.Fatal("replicas must start with identical values")
	}
}

func TestSingleStageSharesTable(t *testing.T) {
	stages, err := NewStages(testCfg(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if stages[0].Emb != stages[0].OutEmb {
		t.Fatal("single stage should share the table (no sync needed)")
	}
}

func TestDeterministicConstruction(t *testing.T) {
	a, _ := NewStages(testCfg(), 2)
	b, _ := NewStages(testCfg(), 2)
	pa, pb := a[0].Params(), b[0].Params()
	for i := range pa {
		if !pa[i].Equal(pb[i], 0) {
			t.Fatalf("param %d differs across constructions with same seed", i)
		}
	}
}

func TestParamsGradsAligned(t *testing.T) {
	stages, _ := NewStages(testCfg(), 2)
	for si, s := range stages {
		ps, gs := s.Params(), s.Grads()
		if len(ps) != len(gs) {
			t.Fatalf("stage %d: %d params vs %d grads", si, len(ps), len(gs))
		}
		for i := range ps {
			if ps[i].Rows != gs[i].Rows || ps[i].Cols != gs[i].Cols {
				t.Fatalf("stage %d param %d shape mismatch", si, i)
			}
		}
	}
}

func TestParamCountMatchesStages(t *testing.T) {
	cfg := testCfg()
	stages, _ := NewStages(cfg, 1) // single stage: tied table counted once
	var got int64
	for _, p := range stages[0].Params() {
		got += int64(p.NumElements())
	}
	// Single-stage Params includes OutLN (gain+bias) which ParamCount
	// doesn't model; adjust.
	got -= int64(2 * cfg.Hidden)
	if got != cfg.ParamCount() {
		t.Fatalf("ParamCount %d, stage params %d", cfg.ParamCount(), got)
	}
}

func TestCrossEntropyKnownValue(t *testing.T) {
	logits := tensor.FromSlice(1, 2, []float64{0, 0})
	loss, d := CrossEntropy(logits, []int{0})
	if math.Abs(loss-math.Log(2)) > 1e-12 {
		t.Fatalf("loss %v want ln2", loss)
	}
	if math.Abs(d.At(0, 0)-(-0.5)) > 1e-12 || math.Abs(d.At(0, 1)-0.5) > 1e-12 {
		t.Fatalf("dLogits %v", d.Data)
	}
}

func TestCrossEntropyGradSumsToZero(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	logits := tensor.RandN(rng, 4, 7, 2)
	_, d := CrossEntropy(logits, []int{1, 2, 3, 0})
	for i := 0; i < d.Rows; i++ {
		var s float64
		for _, v := range d.Row(i) {
			s += v
		}
		if math.Abs(s) > 1e-12 {
			t.Fatalf("row %d grad sums to %v", i, s)
		}
	}
}

func TestPerplexity(t *testing.T) {
	if Perplexity(0) != 1 {
		t.Fatal("PPL(0)=1")
	}
	if math.Abs(Perplexity(math.Log(9.31))-9.31) > 1e-9 {
		t.Fatal("PPL inverse of log")
	}
}

// TestGradientCheck verifies the full pipeline backward against finite
// differences on every parameter class (embedding, input projection,
// block weights, layer norm, tied head). This is the load-bearing
// correctness test for the whole training substrate.
func TestGradientCheck(t *testing.T) {
	cfg := Config{Vocab: 7, Hidden: 5, Context: 2, Blocks: 3, Seed: 9}
	stages, err := NewStages(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	contexts, targets := randBatch(rng, cfg, 4)

	// Analytic gradients.
	for _, s := range stages {
		s.ZeroGrads()
	}
	h := stages[0].ForwardTokens(contexts)
	h = stages[1].ForwardHidden(h)
	h = stages[2].ForwardHidden(h)
	logits := stages[2].Logits(h)
	_, dLogits := CrossEntropy(logits, targets)
	d := stages[2].BackwardLogits(dLogits)
	d = stages[1].BackwardHidden(d)
	stages[0].BackwardHidden(d)

	const eps = 1e-5
	for si, s := range stages {
		params, grads := s.Params(), s.Grads()
		for pi, p := range params {
			// Probe a few elements of each parameter.
			probes := []int{0, p.NumElements() / 2, p.NumElements() - 1}
			for _, idx := range probes {
				orig := p.Data[idx]
				p.Data[idx] = orig + eps
				lp := forwardLossOnly(stages, contexts, targets)
				p.Data[idx] = orig - eps
				lm := forwardLossOnly(stages, contexts, targets)
				p.Data[idx] = orig
				fd := (lp - lm) / (2 * eps)
				an := grads[pi].Data[idx]
				if math.Abs(fd-an) > 1e-4*(1+math.Abs(fd)) {
					t.Fatalf("stage %d param %d elem %d: analytic %v vs fd %v", si, pi, idx, an, fd)
				}
			}
		}
	}
}

// forwardLossOnly runs forward and then drains all caches via a backward
// pass whose gradients are discarded into scratch accumulators.
func forwardLossOnly(stages []*Stage, contexts [][]int, targets []int) float64 {
	// Save gradient state, run forward+backward, restore.
	saved := make([][]float64, 0)
	for _, s := range stages {
		for _, g := range s.Grads() {
			cp := make([]float64, len(g.Data))
			copy(cp, g.Data)
			saved = append(saved, cp)
		}
	}
	h := stages[0].ForwardTokens(contexts)
	for _, s := range stages[1:] {
		h = s.ForwardHidden(h)
	}
	last := stages[len(stages)-1]
	logits := last.Logits(h)
	loss, dLogits := CrossEntropy(logits, targets)
	d := last.BackwardLogits(dLogits)
	for i := len(stages) - 2; i >= 1; i-- {
		d = stages[i].BackwardHidden(d)
	}
	if len(stages) > 1 {
		stages[0].BackwardHidden(d)
	}
	i := 0
	for _, s := range stages {
		for _, g := range s.Grads() {
			copy(g.Data, saved[i])
			i++
		}
	}
	return loss
}

func TestMicroBatchAccumulationEqualsFullBatch(t *testing.T) {
	// Two micro-batches of size 2 must produce the same *summed* gradients
	// as... with the 1/B normalization, half the full-batch-of-4 gradient
	// scaled appropriately: sum of per-micro grads (each averaged over 2)
	// equals 2× the average over 4. Verify that relationship.
	cfg := Config{Vocab: 7, Hidden: 5, Context: 2, Blocks: 2, Seed: 5}
	rng := rand.New(rand.NewSource(23))
	contexts, targets := randBatch(rng, cfg, 4)

	full, _ := NewStages(cfg, 2)
	runOne(full, contexts, targets)

	micro, _ := NewStages(cfg, 2)
	runOne(micro, contexts[:2], targets[:2])
	runOne(micro, contexts[2:], targets[2:])

	for si := range full {
		fg, mg := full[si].Grads(), micro[si].Grads()
		for i := range fg {
			scaled := fg[i].Clone().Scale(2)
			if !scaled.Equal(mg[i], 1e-9) {
				t.Fatalf("stage %d grad %d: micro-batch accumulation inconsistent", si, i)
			}
		}
	}
}

func runOne(stages []*Stage, contexts [][]int, targets []int) {
	h := stages[0].ForwardTokens(contexts)
	for _, s := range stages[1:] {
		h = s.ForwardHidden(h)
	}
	last := stages[len(stages)-1]
	logits := last.Logits(h)
	_, dLogits := CrossEntropy(logits, targets)
	d := last.BackwardLogits(dLogits)
	for i := len(stages) - 2; i >= 1; i-- {
		d = stages[i].BackwardHidden(d)
	}
	if len(stages) > 1 {
		stages[0].BackwardHidden(d)
	}
}

func TestInFlightMicroBatchQueues(t *testing.T) {
	// Interleave two forwards before any backward (as 1F1B does) and
	// check gradients equal the sequential forward/backward order.
	cfg := Config{Vocab: 7, Hidden: 5, Context: 2, Blocks: 2, Seed: 5}
	rng := rand.New(rand.NewSource(29))
	c1, t1 := randBatch(rng, cfg, 2)
	c2, t2 := randBatch(rng, cfg, 2)

	seq, _ := NewStages(cfg, 1)
	runOne(seq, c1, t1)
	runOne(seq, c2, t2)

	pipe, _ := NewStages(cfg, 1)
	s := pipe[0]
	h1 := s.ForwardTokens(c1)
	h2 := s.ForwardTokens(c2) // second forward while the first is in flight
	l1 := s.Logits(h1)
	l2 := s.Logits(h2)
	_, d1 := CrossEntropy(l1, t1)
	_, d2 := CrossEntropy(l2, t2)
	s.BackwardLogits(d1)
	s.BackwardLogits(d2)

	for i := range seq[0].Grads() {
		if !seq[0].Grads()[i].Equal(pipe[0].Grads()[i], 1e-9) {
			t.Fatalf("grad %d differs between sequential and in-flight order", i)
		}
	}
}

func TestSGDStepDirection(t *testing.T) {
	p := tensor.FromSlice(1, 2, []float64{1, 1})
	g := tensor.FromSlice(1, 2, []float64{1, -1})
	opt := NewSGD(0.1, 0, 0)
	opt.Step([]*tensor.Matrix{p}, []*tensor.Matrix{g})
	if math.Abs(p.At(0, 0)-0.9) > 1e-12 || math.Abs(p.At(0, 1)-1.1) > 1e-12 {
		t.Fatalf("SGD step wrong: %v", p.Data)
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	p := tensor.FromSlice(1, 1, []float64{0})
	g := tensor.FromSlice(1, 1, []float64{1})
	opt := NewSGD(1, 0.5, 0)
	opt.Step([]*tensor.Matrix{p}, []*tensor.Matrix{g}) // v=1, p=-1
	opt.Step([]*tensor.Matrix{p}, []*tensor.Matrix{g}) // v=1.5, p=-2.5
	if math.Abs(p.At(0, 0)+2.5) > 1e-12 {
		t.Fatalf("momentum wrong: %v", p.At(0, 0))
	}
}

func TestSGDClipDoesNotMutateGrad(t *testing.T) {
	p := tensor.FromSlice(1, 1, []float64{0})
	g := tensor.FromSlice(1, 1, []float64{10})
	opt := NewSGD(1, 0, 1)
	opt.Step([]*tensor.Matrix{p}, []*tensor.Matrix{g})
	if g.At(0, 0) != 10 {
		t.Fatal("Step must not mutate the gradient")
	}
	if math.Abs(p.At(0, 0)+1) > 1e-12 {
		t.Fatalf("clip not applied: %v", p.At(0, 0))
	}
}

func TestZeroGrads(t *testing.T) {
	cfg := testCfg()
	stages, _ := NewStages(cfg, 2)
	rng := rand.New(rand.NewSource(31))
	c, tg := randBatch(rng, cfg, 2)
	runOne(stages, c, tg)
	nonzero := false
	for _, s := range stages {
		for _, g := range s.Grads() {
			if g.FrobeniusNorm() > 0 {
				nonzero = true
			}
		}
	}
	if !nonzero {
		t.Fatal("expected nonzero grads after backward")
	}
	for _, s := range stages {
		s.ZeroGrads()
	}
	for _, s := range stages {
		for _, g := range s.Grads() {
			if g.FrobeniusNorm() != 0 {
				t.Fatal("ZeroGrads left residue")
			}
		}
	}
}

func TestParamBytes(t *testing.T) {
	stages, _ := NewStages(testCfg(), 2)
	if stages[0].ParamBytes(2) <= 0 {
		t.Fatal("ParamBytes must be positive")
	}
	var sum int64
	for _, p := range stages[0].Params() {
		sum += int64(p.NumElements()) * 2
	}
	if stages[0].ParamBytes(2) != sum {
		t.Fatal("ParamBytes mismatch")
	}
}

// TestBackwardAccumulatesWithoutScratch pins the backward temporaries
// that stay inside their layer: Linear's and the tied head's weight
// gradients accumulate in place, bit-identical to adding freshly
// allocated per-micro-batch products, and LayerNorm's row gradient is
// one reused buffer.
func TestBackwardAccumulatesWithoutScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	lin := NewLinear(rng, 5, 4)
	head := NewEmbedding(rng, 7, 4)
	ln := NewLayerNorm(4)
	var xs, hs []*tensor.Matrix
	for mb := 0; mb < 3; mb++ {
		xs = append(xs, tensor.RandN(rng, 3, 5, 1))
		hs = append(hs, tensor.RandN(rng, 3, 4, 1))
		lin.Forward(xs[mb])
		head.ProjectLogits(hs[mb])
		ln.Forward(tensor.RandN(rng, 3, 4, 1))
	}
	wantLin, wantHead := tensor.New(5, 4), tensor.New(7, 4)
	var lnDxh *float64
	for mb := range xs {
		dy := tensor.RandN(rng, 3, 4, 1)
		gw := tensor.New(5, 4)
		tensor.MatMulATInto(gw, xs[mb], dy)
		wantLin.Add(gw)
		lin.Backward(dy)

		dl := tensor.RandN(rng, 3, 7, 1)
		hw := tensor.New(7, 4)
		tensor.MatMulATInto(hw, dl, hs[mb])
		wantHead.Add(hw)
		head.BackwardLogits(dl)

		ln.Backward(tensor.RandN(rng, 3, 4, 1))
		if mb == 0 {
			lnDxh = &ln.dxh[0]
		} else if &ln.dxh[0] != lnDxh {
			t.Fatalf("micro-batch %d: LayerNorm scratch was reallocated", mb)
		}
	}
	if !lin.GW.Equal(wantLin, 0) {
		t.Fatal("Linear weight gradient differs from the sum of fresh per-micro-batch products")
	}
	if !head.GW.Equal(wantHead, 0) {
		t.Fatal("tied-head gradient differs from the sum of fresh per-micro-batch products")
	}
}
