package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/train"
)

// trainWorkload is one executed-training workload: a trainer
// configuration derived from the run seed.
type trainWorkload struct {
	config func(seed int64) train.Config
	// procs, when positive, is the GOMAXPROCS the run uses.
	procs int
}

// cbfescWorkload is the shape of `optcc-train -config cbfesc` and
// BenchmarkTrainIteration: the default 8-block hidden-48 model on
// DP2×PP4, micro-batch 32 × 4, every Optimus-CC technique at the scaled
// ranks, pipelined engine, overlapped DP sync, in-memory transport.
var cbfescWorkload = trainWorkload{
	config: func(seed int64) train.Config {
		cfg := train.DefaultConfig()
		cfg.MicroBatch = 32
		cfg.Opt = experiments.ScaledOpt(core.CBFESC())
		cfg.Seed = seed
		cfg.Model.Seed = seed
		return cfg
	},
}

// denseWorkload is the `optcc-bench -overlap-bench` dense shape: hidden
// 32, 8 blocks, DP8×PP2, micro-batch 4 × 2, no compression — a bucketed
// 8-way ring all-reduce whose collective time dwarfs the compute.
//
// It runs on one P. Its 4320 goroutine hand-offs per iteration leave
// the CPUs idle between wake-ups, and on a 2-vCPU VM two Ps put the
// hypervisor's wake-up latency in every figure: 2.45 s of steal in a
// 10 s run, and an iteration-p90 spread of 0.57 across 10 seeds. On one
// P the steal vanished and the p90 spread fell to 0.05. The workload so
// measures the collective's CPU cost per iteration; overlap needs the
// other core and shows on train-cbfesc-dp2pp4.
var denseWorkload = trainWorkload{
	procs: 1,
	config: func(seed int64) train.Config {
		cfg := train.DefaultConfig()
		cfg.Model = model.Config{Vocab: 32, Hidden: 32, Context: 3, Blocks: 8, Seed: seed}
		cfg.DPGroups = 8
		cfg.Stages = 2
		cfg.MicroBatch = 4
		cfg.MicroBatches = 2
		cfg.Opt = core.Baseline()
		cfg.Seed = seed
		return cfg
	},
}

const (
	// setupRounds is how many times set-up is repeated; setup_s is the
	// median.
	setupRounds = 11
	// refIters is how many leading iterations are compared, at tolerance
	// zero, against an EngineReference run of the same seed.
	refIters = 3
	// lossFrom..lossTo (1-based iteration numbers, the warm-up being 1)
	// is the fixed window train.loss_final averages, so the figure does
	// not depend on how many iterations fit in the measured time.
	lossFrom, lossTo = 151, 200
	// tracedIters is the traced trainer's iteration budget; its span
	// rings are sized for it with train.TraceCapacityFor.
	tracedIters = 60
	// traceRound is the iterations per alternating untraced/traced round.
	traceRound = 10
	// chunkTarget is the wall time per throughput chunk (see chunkRates).
	chunkTarget = 250 * time.Millisecond
)

// corpusConfig derives the synthetic corpus from the run seed.
func corpusConfig(seed int64) data.Config {
	c := data.DefaultConfig()
	c.Seed = seed
	return c
}

// samplesPerIter is the global batch: samples every DP group processes
// per iteration.
func samplesPerIter(cfg train.Config) float64 {
	return float64(cfg.DPGroups * cfg.MicroBatches * cfg.MicroBatch)
}

// classBytes snapshots a trainer's executed wire bytes per class.
func classBytes(tr *train.Trainer) [3]int64 {
	st, _ := tr.CollectiveStats()
	return [3]int64{
		st.For(collective.ClassDP).Bytes,
		st.For(collective.ClassPP).Bytes,
		st.For(collective.ClassEmb).Bytes,
	}
}

// predictedBytes is the plan's per-iteration wire prediction per class
// (dp, pp, emb).
func predictedBytes(tr *train.Trainer) [3]int64 {
	return [3]int64{tr.PredictedDPBytes(), tr.PredictedPPBytes(), tr.PredictedEmbBytes()}
}

var classNames = [3]string{"dp", "pp", "emb"}

// checkBytes compares the executed bytes moved over iters iterations
// (after − before) with iters × the plan's prediction, per class, exactly.
func checkBytes(t *tally, tr *train.Trainer, before, after [3]int64, iters int64, what string) {
	pred := predictedBytes(tr)
	for c := range pred {
		got, want := after[c]-before[c], pred[c]*iters
		t.check(got == want, "%s: %s bytes over %d iterations: executed %d, plan %d", what, classNames[c], iters, got, want)
	}
}

// checkReference compares the leading losses of a run against an
// EngineReference trainer of the same configuration and seed, at
// tolerance zero.
func checkReference(t *tally, cfg train.Config, losses []float64) error {
	ref := cfg
	ref.Engine = train.EngineReference
	ref.TraceCapacity = 0
	corpus, err := data.Generate(corpusConfig(cfg.Seed))
	if err != nil {
		return err
	}
	rt, err := train.New(ref, corpus)
	if err != nil {
		return fmt.Errorf("reference trainer: %w", err)
	}
	defer rt.Close()
	for i := 0; i < refIters && i < len(losses); i++ {
		want := rt.TrainIteration()
		t.check(losses[i] == want, "iteration %d loss %v != reference %v", i+1, losses[i], want)
	}
	return nil
}

// warmTrainer is one set-up: a trainer after its warm-up iteration.
type warmTrainer struct {
	tr   *train.Trainer
	loss float64 // the warm-up iteration's loss
}

// setUpTrainer generates the corpus, builds the trainer and runs one
// warm-up iteration, checking that iteration's executed bytes.
func setUpTrainer(t *tally, cfg train.Config) (warmTrainer, error) {
	corpus, err := data.Generate(corpusConfig(cfg.Seed))
	if err != nil {
		return warmTrainer{}, err
	}
	tr, err := train.New(cfg, corpus)
	if err != nil {
		return warmTrainer{}, err
	}
	b0 := classBytes(tr)
	loss := tr.TrainIteration()
	checkBytes(t, tr, b0, classBytes(tr), 1, "warm-up")
	return warmTrainer{tr: tr, loss: loss}, nil
}

// finiteFailures counts non-finite losses: an iteration that produced
// NaN or Inf is a failed operation.
func finiteFailures(losses []float64) int64 {
	var bad int64
	for _, l := range losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			bad++
		}
	}
	return bad
}

// runTrain measures one training workload end to end: set-up time, then
// iterations for the measured seconds with tracing off, then (outside
// the timed region) the byte and reference-loss checks.
func runTrain(w trainWorkload, o options, t *tally) (map[string]metric, error) {
	if w.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs))
	}
	if o.trace {
		return traceTrain(w, o, t)
	}
	cfg := w.config(o.seed)
	warm, setupS, err := medianSetup(setupRounds,
		func() (warmTrainer, error) { return setUpTrainer(t, cfg) },
		func(wt warmTrainer) { wt.tr.Close() })
	if err != nil {
		return nil, err
	}
	tr := warm.tr
	defer tr.Close()

	durs := make([]time.Duration, 0, 4096)
	losses := append(make([]float64, 0, 4096), warm.loss)
	b0 := classBytes(tr)
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	stopRSS := sampleRSS()
	for time.Now().Before(deadline) {
		t0 := time.Now()
		l := tr.TrainIteration()
		durs = append(durs, time.Since(t0))
		losses = append(losses, l)
	}
	rss := stopRSS()

	t.ops(int64(len(durs)), finiteFailures(losses[1:]))
	checkBytes(t, tr, b0, classBytes(tr), int64(len(durs)), "measured")
	if err := checkReference(t, cfg, losses); err != nil {
		return nil, err
	}

	lat := ms(durs)
	return map[string]metric{
		"setup_s":          {setupS, "s"},
		"throughput_per_s": {median(chunkRates(durs, samplesPerIter(cfg), chunkTarget)), "1/s"},
		"latency_p50_ms":   {quantile(lat, 0.5), "ms"},
		"latency_tail_ms":  {quantile(lat, 0.9), "ms"},
		"rss_mb":           {rss, "MiB"},
	}, nil
}

// iterSpan is one of the benchmark's own spans: a TrainIteration call on
// the traced trainer, in that trainer's recorder clock.
type iterSpan struct{ start, end int64 }

// traceTrain is the traced run: an untraced and a traced trainer of the
// same seed alternate rounds (so their throughput ratio is the tracing
// overhead), then the per-layer breakdown is read from the traced
// trainer's span recorder over its post-warm-up iterations. An
// allocation window on the untraced trainer, a single-worker baseline of
// the same global batch, and the fixed-window loss follow.
func traceTrain(w trainWorkload, o options, t *tally) (map[string]metric, error) {
	cfg := w.config(o.seed)
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()

	plain, err := setUpTrainer(t, cfg)
	if err != nil {
		return nil, err
	}
	u := plain.tr
	defer u.Close()
	uLosses := []float64{plain.loss}

	tcfg := cfg
	tcfg.TraceCapacity = train.TraceCapacityFor(cfg, tracedIters)
	traced, err := setUpTrainer(t, tcfg)
	if err != nil {
		return nil, err
	}
	tt := traced.tr
	defer tt.Close()
	tLosses := []float64{traced.loss}
	rec := tt.Recorder()
	fromNs := rec.Now()
	tb0 := classBytes(tt)
	tst0, _ := tt.CollectiveStats()

	// Alternating rounds: the untraced and traced trainers see the same
	// host drift, so the ratio of their median round times is the
	// tracing overhead.
	var uRounds, tRounds []float64
	spans := make([]iterSpan, 0, tracedIters)
	for len(spans) < tracedIters && time.Since(start) < budget*6/10 {
		t0 := time.Now()
		for i := 0; i < traceRound; i++ {
			uLosses = append(uLosses, u.TrainIteration())
		}
		uRounds = append(uRounds, time.Since(t0).Seconds())
		t0 = time.Now()
		for i := 0; i < traceRound && len(spans) < tracedIters; i++ {
			s := rec.Now()
			tLosses = append(tLosses, tt.TrainIteration())
			spans = append(spans, iterSpan{s, rec.Now()})
		}
		tRounds = append(tRounds, time.Since(t0).Seconds())
	}
	tst1, _ := tt.CollectiveStats()
	checkBytes(t, tt, tb0, classBytes(tt), int64(len(spans)), "traced")
	t.check(rec.Dropped() == 0, "traced trainer dropped %d spans", rec.Dropped())
	_, err = tt.ReconcileTrace()
	t.check(err == nil, "trace reconciliation: %v", err)
	// Tracing must not change the arithmetic: both trainers share the
	// seed, so their losses agree iteration for iteration.
	for i, l := range tLosses {
		t.check(l == uLosses[i], "traced iteration %d loss %v != untraced %v", i+1, l, uLosses[i])
	}
	m := trainLayers(tt, cfg, rec, fromNs, spans, tst0, tst1)
	m["obs.trace_overhead_pct"] = metric{(median(tRounds)/median(uRounds) - 1) * 100, "%"}
	m["obs.dropped_spans"] = metric{float64(rec.Dropped()), "count"}

	// Allocation window on the untraced trainer.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p0 := u.Pool().Stats()
	n := 0
	memEnd := start.Add(budget * 85 / 100)
	for n == 0 || time.Now().Before(memEnd) {
		uLosses = append(uLosses, u.TrainIteration())
		n++
	}
	runtime.ReadMemStats(&m1)
	p1 := u.Pool().Stats()
	m["mem.alloc_bytes_per_iter"] = metric{float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n), "B"}
	m["mem.allocs_per_iter"] = metric{float64(m1.Mallocs-m0.Mallocs) / float64(n), "count"}
	m["mem.gc_per_iter"] = metric{float64(m1.NumGC-m0.NumGC) / float64(n), "count"}
	hitRate := 0.0
	if gets := p1.Gets - p0.Gets; gets > 0 {
		hitRate = float64(p1.Hits-p0.Hits) / float64(gets)
	}
	m["tensor.pool_hit_rate"] = metric{hitRate, "ratio"}

	single, err := singleWorkerRate(cfg, budget*15/100)
	if err != nil {
		return nil, err
	}
	m["train.single_worker_samples_per_s"] = metric{single, "1/s"}

	for len(uLosses) < lossTo {
		uLosses = append(uLosses, u.TrainIteration())
	}
	m["train.loss_final"] = metric{meanOf(uLosses[lossFrom-1 : lossTo]), "nats"}
	t.ops(int64(len(uLosses)-1+len(spans)), finiteFailures(uLosses)+finiteFailures(tLosses))
	if err := checkReference(t, cfg, uLosses); err != nil {
		return nil, err
	}
	return withIdleLayers(m), nil
}

func meanOf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// singleWorkerRate measures the same task on one worker — DP1×PP1,
// baseline, the same global batch — in samples per second, so the
// parallel grids' overhead on the shared host is visible beside it.
func singleWorkerRate(cfg train.Config, d time.Duration) (float64, error) {
	one := cfg
	one.MicroBatches = cfg.MicroBatches * cfg.DPGroups
	one.DPGroups, one.Stages = 1, 1
	one.Opt = core.Baseline()
	corpus, err := data.Generate(corpusConfig(cfg.Seed))
	if err != nil {
		return 0, err
	}
	tr, err := train.New(one, corpus)
	if err != nil {
		return 0, fmt.Errorf("single-worker trainer: %w", err)
	}
	defer tr.Close()
	tr.TrainIteration()
	var durs []time.Duration
	end := time.Now().Add(d)
	for len(durs) == 0 || time.Now().Before(end) {
		t0 := time.Now()
		tr.TrainIteration()
		durs = append(durs, time.Since(t0))
	}
	return median(chunkRates(durs, samplesPerIter(one), chunkTarget/2)), nil
}

// matmulFLOPsPerSample is the forward+backward matmul work one sample
// costs: 2 FLOPs per weight element forward, 4 backward (input and
// weight gradients), over every weight used as a matmul operand — the
// input projection, the block weights and the tied output head (the
// input embedding is a lookup).
func matmulFLOPsPerSample(stages []*model.Stage) float64 {
	var elems int
	for _, st := range stages {
		if st.InProj != nil {
			elems += st.InProj.W.Rows * st.InProj.W.Cols
		}
		for _, b := range st.Blocks {
			elems += b.Lin.W.Rows * b.Lin.W.Cols
		}
		if st.OutEmb != nil {
			elems += st.OutEmb.W.Rows * st.OutEmb.W.Cols
		}
	}
	return 6 * float64(elems)
}

// spanSums accumulates traced span time (ns) per layer.
type spanSums struct {
	fwd, bwd, opt       int64
	cbCodec, dpCodec    int64
	dpExec, dpOp        int64
	ppSend              int64
	pipe, drain, embSyn int64
}

// sumSpans reads every span recorded at or after fromNs. Track roles
// come from the trainer's track names: rank<i> (compute, p2p sends and
// backprop codec), coll<i> (collective member execution and DP codec),
// driver (pipeline window, DP drain, embedding sync) and ops/<class>
// (issue→finish collective op spans).
func sumSpans(rec *obs.Recorder, fromNs int64) spanSums {
	var s spanSums
	for tr := 0; tr < rec.Tracks(); tr++ {
		name := rec.TrackName(tr)
		var sends, codecs []obs.Span
		rec.Spans(tr, func(sp obs.Span) {
			if sp.StartNs < fromNs {
				return
			}
			d := sp.DurNs()
			switch {
			case strings.HasPrefix(name, "rank"):
				switch sp.Phase {
				case obs.PhaseFwd:
					s.fwd += d
				case obs.PhaseBwd:
					s.bwd += d
				case obs.PhaseOpt:
					s.opt += d
				case obs.PhaseCompress, obs.PhaseDecompress:
					s.cbCodec += d
					codecs = append(codecs, sp)
				case obs.PhaseSendFwd, obs.PhaseSendBwd:
					s.ppSend += d
					sends = append(sends, sp)
				}
			case strings.HasPrefix(name, "coll"):
				switch {
				case sp.Phase == obs.PhaseCollExec && sp.Link == obs.LinkDP:
					s.dpExec += d
				case sp.Phase == obs.PhaseCompress || sp.Phase == obs.PhaseDecompress:
					s.dpCodec += d
				}
			case name == "driver":
				switch sp.Phase {
				case obs.PhasePipeline:
					s.pipe += d
				case obs.PhaseDPDrain:
					s.drain += d
				case obs.PhaseEmbSync:
					s.embSyn += d
				}
			case name == "ops/dp":
				s.dpOp += d
			}
		})
		// A compressed backward send runs the codec inside its span;
		// the send's self time excludes it.
		s.ppSend -= nestedNs(codecs, sends)
	}
	return s
}

// nestedNs sums the durations of inner spans that lie within some outer
// span of the same track.
func nestedNs(inner, outer []obs.Span) int64 {
	var n int64
	for _, in := range inner {
		for _, out := range outer {
			if in.StartNs >= out.StartNs && in.EndNs <= out.EndNs {
				n += in.DurNs()
				break
			}
		}
	}
	return n
}

// trainLayers turns the traced trainer's spans and counters into the
// per-layer table, per iteration over the traced iterations.
func trainLayers(tt *train.Trainer, cfg train.Config, rec *obs.Recorder, fromNs int64,
	spans []iterSpan, st0, st1 collective.Stats) map[string]metric {
	s := sumSpans(rec, fromNs)
	iters := float64(len(spans))
	var wallNs int64
	for _, sp := range spans {
		wallNs += sp.end - sp.start
	}
	perIterMs := func(ns int64) float64 { return float64(ns) / iters / 1e6 }
	wall := perIterMs(wallNs)
	pipe, drain, emb, opt := perIterMs(s.pipe), perIterMs(s.drain), perIterMs(s.embSyn), perIterMs(s.opt)
	ranks := float64(cfg.DPGroups * cfg.Stages)
	bubble := 0.0
	if s.pipe > 0 {
		bubble = 1 - float64(s.fwd+s.bwd)/(ranks*float64(s.pipe))
	}
	flops := matmulFLOPsPerSample(tt.Stages()) * samplesPerIter(cfg)
	gflops := 0.0
	if busy := float64(s.fwd+s.bwd) / iters; busy > 0 {
		gflops = flops / busy // FLOP per ns == GFLOP/s
	}
	perIter := func(c collective.Class) float64 {
		return float64(st1.For(c).Bytes-st0.For(c).Bytes) / iters
	}
	msgs := float64(st1.Total().Messages-st0.Total().Messages) / iters
	return map[string]metric{
		"model.fwd_ms":                  {perIterMs(s.fwd), "ms"},
		"model.bwd_ms":                  {perIterMs(s.bwd), "ms"},
		"model.opt_ms":                  {opt, "ms"},
		"model.flops_per_iter":          {flops, "FLOP"},
		"model.gflops":                  {gflops, "GFLOP/s"},
		"compress.cb_codec_ms":          {perIterMs(s.cbCodec), "ms"},
		"compress.dp_codec_ms":          {perIterMs(s.dpCodec), "ms"},
		"collective.dp_exec_ms":         {perIterMs(s.dpExec), "ms"},
		"collective.dp_op_ms":           {perIterMs(s.dpOp), "ms"},
		"collective.pp_send_ms":         {perIterMs(s.ppSend), "ms"},
		"collective.dp_bytes_per_iter":  {perIter(collective.ClassDP), "B"},
		"collective.pp_bytes_per_iter":  {perIter(collective.ClassPP), "B"},
		"collective.emb_bytes_per_iter": {perIter(collective.ClassEmb), "B"},
		"collective.messages_per_iter":  {msgs, "count"},
		"train.iter_wall_ms":            {wall, "ms"},
		"train.pipe_ms":                 {pipe, "ms"},
		"train.dp_exposed_ms":           {drain, "ms"},
		"train.emb_sync_ms":             {emb, "ms"},
		"train.residual_ms":             {wall - pipe - drain - emb - opt, "ms"},
		"pipeline.bubble_share":         {bubble, "ratio"},
		"pipeline.bubble_share_model":   {pipeline.BubbleFraction1F1B(cfg.Stages, cfg.MicroBatches), "ratio"},
	}
}
