package sim

import (
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
)

// calibratedEff caches the calibration result across tests.
var calibratedEff float64

func eff(t *testing.T) float64 {
	t.Helper()
	if calibratedEff == 0 {
		e, err := Calibrate(PaperScenario(cluster.GPT25B, core.Baseline()), 14.72*86400/230000)
		if err != nil {
			t.Fatal(err)
		}
		calibratedEff = e
	}
	return calibratedEff
}

func paperSim(t *testing.T, spec cluster.GPTSpec, cfg core.Config) Result {
	t.Helper()
	sc := PaperScenario(spec, cfg)
	sc.Topo.Efficiency = eff(t)
	r, err := Simulate(sc)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestScenarioValidate(t *testing.T) {
	sc := PaperScenario(cluster.GPT25B, core.Baseline())
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	if sc.MicroBatches() != 16 {
		t.Fatalf("micro-batches %d want 16 (512/(4·8))", sc.MicroBatches())
	}
	bad := sc
	bad.GlobalBatch = 100 // not divisible by 32
	if bad.Validate() == nil {
		t.Fatal("indivisible batch accepted")
	}
	bad = sc
	bad.Spec.Layers = 53
	if bad.Validate() == nil {
		t.Fatal("indivisible layers accepted")
	}
	bad = sc
	bad.Comm.SteadyOverlap = 2
	if bad.Validate() == nil {
		t.Fatal("bad overlap accepted")
	}
}

func TestCalibrationHitsPaperBaseline(t *testing.T) {
	r := paperSim(t, cluster.GPT25B, core.Baseline())
	if math.Abs(r.Days-14.72) > 0.15 {
		t.Fatalf("calibrated GPT-2.5B baseline %.2f days, want ≈14.72", r.Days)
	}
}

func TestPredicted83BBaselineNearPaper(t *testing.T) {
	// The 8.3B baseline is a *prediction* (calibration used 2.5B only).
	// Paper: 37.27 days. Accept ±15%.
	r := paperSim(t, cluster.GPT83B, core.Baseline())
	if r.Days < 37.27*0.85 || r.Days > 37.27*1.15 {
		t.Fatalf("predicted GPT-8.3B baseline %.2f days, paper 37.27", r.Days)
	}
}

func TestTable2SpeedupOrdering(t *testing.T) {
	// Table 2's qualitative result: Baseline < CB < CB+FE < CB+FE+SC for
	// both models.
	for _, spec := range []cluster.GPTSpec{cluster.GPT25B, cluster.GPT83B} {
		base := paperSim(t, spec, core.Baseline())
		cb := paperSim(t, spec, core.CB())
		cbfe := paperSim(t, spec, core.CBFE())
		full := paperSim(t, spec, core.CBFESC())
		if !(cb.IterationSec < base.IterationSec) {
			t.Fatalf("%s: CB not faster than baseline", spec.Name)
		}
		if !(cbfe.IterationSec < cb.IterationSec) {
			t.Fatalf("%s: CB+FE not faster than CB", spec.Name)
		}
		if !(full.IterationSec < cbfe.IterationSec) {
			t.Fatalf("%s: CB+FE+SC not faster than CB+FE", spec.Name)
		}
		if sp := full.Speedup(base); sp < 0.08 {
			t.Fatalf("%s: full Optimus-CC speedup %.1f%% implausibly small", spec.Name, sp*100)
		}
	}
}

func TestEpilogueOnlyKeepsMostOfTheSpeedup(t *testing.T) {
	// §5.2's claim: restricting compression to the epilogue does not
	// reduce the speedup (when comm < backward time). Compare CB with
	// epilogue-only against CB compressing everything.
	all := core.CB()
	all.EpilogueOnly = false
	for _, spec := range []cluster.GPTSpec{cluster.GPT25B, cluster.GPT83B} {
		base := paperSim(t, spec, core.Baseline())
		epi := paperSim(t, spec, core.CB())
		full := paperSim(t, spec, all)
		spEpi, spAll := epi.Speedup(base), full.Speedup(base)
		if spEpi < 0.6*spAll {
			t.Fatalf("%s: epilogue-only %.2f%% captures too little of full %.2f%%",
				spec.Name, spEpi*100, spAll*100)
		}
	}
}

func TestFuseEmbeddingReducesEmbExposure(t *testing.T) {
	cb := paperSim(t, cluster.GPT25B, core.CB())
	cbfe := paperSim(t, cluster.GPT25B, core.CBFE())
	if !(cbfe.Exposed[LabelEmb] < cb.Exposed[LabelEmb]) {
		t.Fatalf("fusing did not reduce EMB exposure: %.3f vs %.3f",
			cbfe.Exposed[LabelEmb], cb.Exposed[LabelEmb])
	}
	// §6: the reduction should be a substantial fraction (paper measures
	// ≈40% with the analytic model at 42.9%... expressed as base/fused−1;
	// as a time reduction that is ~30–50% with phase overhead included).
	red := 1 - cbfe.Exposed[LabelEmb]/cb.Exposed[LabelEmb]
	if red < 0.25 || red > 0.7 {
		t.Fatalf("EMB exposure reduction %.1f%% outside plausible band", red*100)
	}
}

func TestSelectiveStageCompressionReducesDPExposure(t *testing.T) {
	cbfe := paperSim(t, cluster.GPT83B, core.CBFE())
	full := paperSim(t, cluster.GPT83B, core.CBFESC())
	if !(full.Exposed[LabelDP] < cbfe.Exposed[LabelDP]) {
		t.Fatal("SC did not reduce DP exposure")
	}
}

func TestSCSweepMonotone(t *testing.T) {
	// Fig. 13 (left): more compressed stages → faster (with rank 128).
	prev := math.Inf(1)
	base := paperSim(t, cluster.GPT25B, core.Baseline())
	for _, frac := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		cfg := core.CBFE()
		cfg.SelectiveStageFraction = frac
		cfg.DPRank = 128
		r := paperSim(t, cluster.GPT25B, cfg)
		if r.IterationSec > prev+1e-9 {
			t.Fatalf("SC fraction %.2f slower than smaller fraction", frac)
		}
		prev = r.IterationSec
		if frac > 0 && r.Speedup(base) <= 0 {
			t.Fatalf("SC fraction %.2f gives no speedup", frac)
		}
	}
}

func TestRank512DegradesSpeed(t *testing.T) {
	// Fig. 13 (middle): cranking DP rank to 512 hurts, because the
	// compression itself becomes the bottleneck.
	cfg128 := core.CBFE()
	cfg128.SelectiveStageFraction = 1
	cfg128.DPRank = 128
	cfg512 := cfg128
	cfg512.DPRank = 512
	r128 := paperSim(t, cluster.GPT25B, cfg128)
	r512 := paperSim(t, cluster.GPT25B, cfg512)
	if !(r512.IterationSec > r128.IterationSec) {
		t.Fatalf("rank 512 (%.3fs) should be slower than rank 128 (%.3fs)",
			r512.IterationSec, r128.IterationSec)
	}
}

func TestLargerModelLargerAbsoluteCommSavings(t *testing.T) {
	// §9.7's scalability driver: bigger models leave more absolute time
	// on the table for compression to reclaim.
	base25 := paperSim(t, cluster.GPT25B, core.Baseline())
	full25 := paperSim(t, cluster.GPT25B, core.CBFESC())
	base83 := paperSim(t, cluster.GPT83B, core.Baseline())
	full83 := paperSim(t, cluster.GPT83B, core.CBFESC())
	save25 := base25.IterationSec - full25.IterationSec
	save83 := base83.IterationSec - full83.IterationSec
	if save83 <= save25 {
		t.Fatalf("8.3B saving %.3fs not above 2.5B saving %.3fs", save83, save25)
	}
}

func TestBreakdownComponentsNonNegative(t *testing.T) {
	r := paperSim(t, cluster.GPT25B, core.Baseline())
	for _, l := range AllLabels {
		if r.Exposed[l] < -1e-9 {
			t.Fatalf("component %s negative exposure %v", l, r.Exposed[l])
		}
		if r.Busy[l] < 0 {
			t.Fatalf("component %s negative busy %v", l, r.Busy[l])
		}
	}
	// Compute must dominate the iteration (paper Fig. 3: FWD+BWD is the
	// bulk).
	if r.Exposed[LabelFwd]+r.Exposed[LabelBwd] < 0.4*r.IterationSec {
		t.Fatalf("compute exposure %.3f+%.3f suspiciously small vs %.3f",
			r.Exposed[LabelFwd], r.Exposed[LabelBwd], r.IterationSec)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	a := paperSim(t, cluster.GPT25B, core.CBFESC())
	b := paperSim(t, cluster.GPT25B, core.CBFESC())
	if a.IterationSec != b.IterationSec {
		t.Fatal("simulation not deterministic")
	}
}

func TestDegenerateParallelism(t *testing.T) {
	// PP=1 and DP=1 must simulate without inter-stage or DP tasks.
	sc := PaperScenario(cluster.GPT25B, core.Baseline())
	sc.Map = cluster.Mapping{TP: 8, DP: 1, PP: 4}
	sc.GlobalBatch = 128
	r, err := Simulate(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.Exposed[LabelDP] != 0 {
		t.Fatalf("DP=1 should expose no DP time, got %v", r.Exposed[LabelDP])
	}
	sc.Map = cluster.Mapping{TP: 8, DP: 4, PP: 1}
	sc.GlobalBatch = 512
	sc.Spec.Layers = 52
	r, err = Simulate(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.Exposed[LabelInterStage] != 0 {
		t.Fatalf("PP=1 should expose no inter-stage time, got %v", r.Exposed[LabelInterStage])
	}
}

func TestFig14Configurations(t *testing.T) {
	// GPT-9.2B (80 layers), DP4 fixed: (TP8,PP4), (TP4,PP8), (TP2,PP16).
	// Full Optimus-CC must beat the baseline in every configuration
	// (paper: ≥19.2% everywhere; we require a positive speedup).
	for _, m := range []cluster.Mapping{
		{TP: 8, DP: 4, PP: 4},
		{TP: 4, DP: 4, PP: 8},
		{TP: 2, DP: 4, PP: 16},
	} {
		base := PaperScenario(cluster.GPT92B, core.Baseline())
		base.Map = m
		base.Topo.Efficiency = eff(t)
		rb, err := Simulate(base)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		full := base
		full.Cfg = core.CBFESC()
		rf, err := Simulate(full)
		if err != nil {
			t.Fatal(err)
		}
		if sp := rf.Speedup(rb); sp <= 0 {
			t.Fatalf("%v: Optimus-CC speedup %.2f%% not positive", m, sp*100)
		}
	}
}

func TestFig14CBvsSCTrend(t *testing.T) {
	// Fig. 14's trend: CB matters more with more pipeline stages; SC
	// matters more with fewer stages.
	cbGain := func(m cluster.Mapping) float64 {
		base := PaperScenario(cluster.GPT92B, core.Baseline())
		base.Map = m
		base.Topo.Efficiency = eff(t)
		rb, err := Simulate(base)
		if err != nil {
			t.Fatal(err)
		}
		cb := base
		cb.Cfg = core.CB()
		rc, err := Simulate(cb)
		if err != nil {
			t.Fatal(err)
		}
		return rb.IterationSec - rc.IterationSec
	}
	shallow := cbGain(cluster.Mapping{TP: 8, DP: 4, PP: 4})
	deep := cbGain(cluster.Mapping{TP: 2, DP: 4, PP: 16})
	if deep <= shallow {
		t.Fatalf("CB gain with PP16 (%.3fs) should exceed PP4 (%.3fs)", deep, shallow)
	}
}

func TestFig16Scalability(t *testing.T) {
	// Optimus-CC keeps a positive speedup as models scale to 175B with
	// proportionally more GPUs (TP8 fixed, DP4, PP grows).
	cases := []struct {
		spec  cluster.GPTSpec
		pp    int
		nodes int
	}{
		{cluster.GPT25B, 4, 16},
		{cluster.GPT83B, 4, 16},
		{cluster.GPT39B, 8, 32},
		{cluster.GPT175B, 16, 64},
	}
	for _, c := range cases {
		sc := PaperScenario(c.spec, core.Baseline())
		sc.Map = cluster.Mapping{TP: 8, DP: 4, PP: c.pp}
		sc.Topo.Nodes = c.nodes
		sc.Topo.Efficiency = eff(t)
		rb, err := Simulate(sc)
		if err != nil {
			t.Fatalf("%s: %v", c.spec.Name, err)
		}
		full := sc
		full.Cfg = core.CBFESC()
		rf, err := Simulate(full)
		if err != nil {
			t.Fatal(err)
		}
		if sp := rf.Speedup(rb); sp <= 0.03 {
			t.Fatalf("%s: speedup %.2f%% too small", c.spec.Name, sp*100)
		}
	}
}

func TestTimelineRendering(t *testing.T) {
	sc := PaperScenario(cluster.GPT25B, core.Baseline())
	sc.Topo.Efficiency = eff(t)
	out, err := Timeline(sc, 100)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 1+4 {
		t.Fatalf("want header + 4 device rows, got %d lines", len(lines))
	}
	if !strings.Contains(out, "F") || !strings.Contains(out, "B") {
		t.Fatal("timeline missing compute marks")
	}
	if !strings.Contains(out, "D") || !strings.Contains(out, "E") {
		t.Fatal("timeline missing DP/EMB marks")
	}
}

// TestTimelineGolden pins the Fig. 4 rendering byte for byte, for the
// baseline (two-phase §6 embedding) and full Optimus-CC (fused), at a
// fixed efficiency so the golden does not move with calibration.
func TestTimelineGolden(t *testing.T) {
	var got strings.Builder
	for _, cfg := range []core.Config{core.Baseline(), core.CBFESC()} {
		sc := PaperScenario(cluster.GPT25B, cfg)
		sc.Topo.Efficiency = 0.35
		out, err := Timeline(sc, 100)
		if err != nil {
			t.Fatal(err)
		}
		got.WriteString(out)
	}
	want, err := os.ReadFile("testdata/timeline_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("timeline drifted from testdata/timeline_golden.txt:\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}

// TestCalibrationBits pins the calibrated GPT-2.5B efficiency (eff's
// target is experiments.PaperIterationTarget) to its exact bits: served
// what-if prices, optcc-sim tables and the autotune goldens are all
// computed at this efficiency, so any drift in the simulator's
// arithmetic shows here first.
func TestCalibrationBits(t *testing.T) {
	const want = 0x3fb47b04eb28544a // 0.0800021242251471
	if got := eff(t); math.Float64bits(got) != want {
		t.Fatalf("calibrated efficiency %v (bits %#x), want %v (bits %#x)",
			got, math.Float64bits(got), math.Float64frombits(want), uint64(want))
	}
}

func TestBreakdownReportRenders(t *testing.T) {
	r := paperSim(t, cluster.GPT25B, core.Baseline())
	rep := BreakdownReport("Baseline", r)
	for _, l := range AllLabels {
		if !strings.Contains(rep, l) {
			t.Fatalf("report missing %s:\n%s", l, rep)
		}
	}
}

func TestTopKCBSlowerThanLowRank(t *testing.T) {
	// Fig. 3's Opt-CC(TopK): same element budget costs 3× the wire bytes.
	lr := paperSim(t, cluster.GPT25B, core.CB())
	tk := core.CB()
	tk.CBAlg = core.CBTopK
	rtk := paperSim(t, cluster.GPT25B, tk)
	if rtk.IterationSec < lr.IterationSec {
		t.Fatal("top-k CB should not beat low-rank CB")
	}
}
