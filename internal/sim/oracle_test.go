package sim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/pipeline"
	"repro/internal/simnet"
)

// The tol-0 oracle for the simulator. Production prices every scenario on
// an Evaluator: one zero-duration skeleton, one duration-assignment pass,
// and the §3 breakdown re-solved on the frozen sequence. The code below
// reaches the same numbers independently: it builds the task graph with
// each duration written in as the task is added, forces one component to
// zero through a zero set, and rebuilds and re-solves the whole graph
// 1 + |AllLabels| times. Every test in this file pins production to it
// bit for bit.

// oracleZeroSet marks labels whose tasks get zero duration (the §3
// CPI-stack "turn off a component" methodology).
type oracleZeroSet map[string]bool

func (z oracleZeroSet) dur(label string, d float64) float64 {
	if z[label] {
		return 0
	}
	return d
}

// oracleBuildGraph assembles one training iteration as a priced task
// graph, with the labels in zero forced to zero duration.
func oracleBuildGraph(s Scenario, zero oracleZeroSet) (*simnet.Graph, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	p := s.Map.PP
	m := s.MicroBatches()
	pl, err := s.Plan()
	if err != nil {
		return nil, err
	}
	sched, err := pipeline.OneFOneB(p, m)
	if err != nil {
		return nil, err
	}
	d := computeDurations(s, pl)
	g := simnet.NewGraph()

	dev := func(st int) string { return fmt.Sprintf("dev%d", st) }
	fid := func(st, mi int) string { return fmt.Sprintf("F/%d/%d", st, mi) }
	bid := func(st, mi int) string { return fmt.Sprintf("B/%d/%d", st, mi) }
	sfid := func(st, mi int) string { return fmt.Sprintf("SF/%d/%d", st, mi) }
	sbid := func(st, mi int) string { return fmt.Sprintf("SB/%d/%d", st, mi) }

	for st := 0; st < p; st++ {
		for _, op := range sched.PerStage[st] {
			switch op.Kind {
			case pipeline.Forward:
				g.Add(fid(st, op.Micro), LabelFwd, zero.dur(LabelFwd, d.fwd[st]), dev(st))
			case pipeline.Backward:
				g.Add(bid(st, op.Micro), LabelBwd, zero.dur(LabelBwd, d.bwd[st]), dev(st))
			}
		}
	}
	hide := 1 - s.Comm.SteadyOverlap
	fwdPhase := make(map[[2]int]pipeline.Phase)
	for st := 0; st < p; st++ {
		for _, op := range sched.PerStage[st] {
			if op.Kind == pipeline.Forward {
				fwdPhase[[2]int{st, op.Micro}] = op.Phase
			}
		}
	}
	for st := 0; st < p-1; st++ {
		for mi := 0; mi < m; mi++ {
			dur := d.sendFwdXfer
			if fwdPhase[[2]int{st, mi}] != pipeline.Warmup {
				dur *= hide
			}
			t := g.Add(sfid(st, mi), LabelInterStage, zero.dur(LabelInterStage, dur),
				fmt.Sprintf("linkF%d", st))
			g.Dep(g.Get(fid(st, mi)), t)
			g.Dep(t, g.Get(fid(st+1, mi)))
		}
	}
	for st := 1; st < p; st++ {
		for mi := 0; mi < m; mi++ {
			epilogue := sched.IsEpilogueBackward(st, mi)
			compressed := pl.CompressBackward(st, mi)
			xfer := d.sendBwdXfer
			var codec float64
			if compressed {
				xfer = d.sendBwdCmpXfer
				codec = d.sendBwdCodec
			}
			if !epilogue {
				xfer *= hide
			}
			t := g.Add(sbid(st, mi), LabelInterStage, zero.dur(LabelInterStage, xfer+codec),
				fmt.Sprintf("linkB%d", st))
			g.Dep(g.Get(bid(st, mi)), t)
			g.Dep(t, g.Get(bid(st-1, mi)))
		}
	}
	for st := 0; st < p; st++ {
		t := g.Add(fmt.Sprintf("DP/%d", st), LabelDP, zero.dur(LabelDP, d.dp[st]),
			fmt.Sprintf("nic%d", st))
		g.Dep(g.Get(bid(st, m-1)), t)
	}
	var prev *simnet.Task
	for i, dur := range d.embPhase {
		t := g.Add(fmt.Sprintf("EMB/%d", i), LabelEmb, zero.dur(LabelEmb, dur), "nicEmb")
		g.Dep(g.Get(bid(0, m-1)), t)
		g.Dep(g.Get(bid(p-1, m-1)), t)
		g.Dep(g.Get("DP/0"), t)
		g.Dep(g.Get(fmt.Sprintf("DP/%d", p-1)), t)
		if prev != nil {
			g.Dep(prev, t)
		}
		prev = t
	}
	return g, nil
}

// oracleSimulate resolves one iteration by a full solve, then one more
// full rebuild-and-solve per zeroed component.
func oracleSimulate(s Scenario) (Result, error) {
	g, err := oracleBuildGraph(s, nil)
	if err != nil {
		return Result{}, err
	}
	iter, err := g.Solve()
	if err != nil {
		return Result{}, err
	}
	res := Result{
		IterationSec: iter,
		Days:         iter * float64(s.Iterations) / 86400,
		Exposed:      make(map[string]float64, len(AllLabels)),
		Busy:         g.TotalByLabel(),
	}
	for _, label := range AllLabels {
		g2, err := oracleBuildGraph(s, oracleZeroSet{label: true})
		if err != nil {
			return Result{}, err
		}
		mk, err := g2.Solve()
		if err != nil {
			return Result{}, err
		}
		res.Exposed[label] = iter - mk
	}
	return res, nil
}

// oracleSummarize reports per-resource utilization from one full solve.
func oracleSummarize(s Scenario) (TraceSummary, error) {
	g, err := oracleBuildGraph(s, nil)
	if err != nil {
		return TraceSummary{}, err
	}
	mk, err := g.Solve()
	if err != nil {
		return TraceSummary{}, err
	}
	out := TraceSummary{Makespan: mk, Utilization: map[string]float64{}}
	for res, busy := range g.ResourceBusy() {
		out.Utilization[res] = busy / mk
	}
	return out, nil
}

// oracleScenario is one cell of the oracle sweep.
type oracleScenario struct {
	name string
	s    Scenario
}

// oracleScenarios spans evaluatorConfigs() × {GPT-2.5B, GPT-8.3B} × every
// valid grid of the sweep below, including PP=1 (the EmbDPOnly strategy)
// and DP=1. A cell that fails validation must fail Simulate too.
func oracleScenarios(t *testing.T) []oracleScenario {
	t.Helper()
	var cells []oracleScenario
	grids := []cluster.Mapping{
		{TP: 8, DP: 4, PP: 4},
		{TP: 8, DP: 1, PP: 4},
		{TP: 8, DP: 16, PP: 1},
		{TP: 4, DP: 4, PP: 8},
		{TP: 8, DP: 2, PP: 8},
	}
	for _, spec := range []cluster.GPTSpec{cluster.GPT25B, cluster.GPT83B} {
		for _, grid := range grids {
			for name, cfg := range evaluatorConfigs() {
				s := PaperScenario(spec, cfg)
				s.Map = grid
				c := oracleScenario{
					name: fmt.Sprintf("%s/TP%d-DP%d-PP%d/%s", spec.Name, grid.TP, grid.DP, grid.PP, name),
					s:    s,
				}
				if err := s.Validate(); err != nil {
					if _, err := Simulate(s); err == nil {
						t.Errorf("%s: invalid scenario (%v) simulated without error", c.name, s.Validate())
					}
					continue
				}
				cells = append(cells, c)
			}
		}
	}
	return cells
}

func TestSimulateMatchesOracle(t *testing.T) {
	cells := oracleScenarios(t)
	grids := map[string]bool{}
	for _, c := range cells {
		grids[fmt.Sprintf("%d/%d/%d", c.s.Map.TP, c.s.Map.DP, c.s.Map.PP)] = true
		want, err := oracleSimulate(c.s)
		if err != nil {
			t.Fatalf("%s: oracle: %v", c.name, err)
		}
		got, err := Simulate(c.s)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if math.Float64bits(got.IterationSec) != math.Float64bits(want.IterationSec) {
			t.Errorf("%s: iteration %v, oracle %v", c.name, got.IterationSec, want.IterationSec)
		}
		if math.Float64bits(got.Days) != math.Float64bits(want.Days) {
			t.Errorf("%s: days %v, oracle %v", c.name, got.Days, want.Days)
		}
		for _, label := range AllLabels {
			if math.Float64bits(got.Exposed[label]) != math.Float64bits(want.Exposed[label]) {
				t.Errorf("%s: exposed %s %v, oracle %v", c.name, label, got.Exposed[label], want.Exposed[label])
			}
		}
		if len(got.Exposed) != len(want.Exposed) {
			t.Errorf("%s: exposed keys %v, oracle %v", c.name, got.Exposed, want.Exposed)
		}
		assertBitsEqual(t, c.name+": busy", got.Busy, want.Busy)
	}
	// The sweep must reach the degenerate grids, or it proves less than
	// it claims: PP=1 (EmbDPOnly, no sends) and DP=1 (no DP sync).
	for _, g := range []string{"8/16/1", "8/1/4", "8/4/4", "4/4/8", "8/2/8"} {
		if !grids[g] {
			t.Errorf("grid TP/DP/PP %s has no valid cell", g)
		}
	}
}

func TestSummarizeMatchesOracle(t *testing.T) {
	cells := oracleScenarios(t)
	for _, c := range cells {
		want, err := oracleSummarize(c.s)
		if err != nil {
			t.Fatalf("%s: oracle: %v", c.name, err)
		}
		got, err := Summarize(c.s)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if math.Float64bits(got.Makespan) != math.Float64bits(want.Makespan) {
			t.Errorf("%s: makespan %v, oracle %v", c.name, got.Makespan, want.Makespan)
		}
		assertBitsEqual(t, c.name+": utilization", got.Utilization, want.Utilization)
	}
}

// assertBitsEqual requires the same key set and bit-identical values.
func assertBitsEqual(t *testing.T, what string, got, want map[string]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: keys %v, oracle %v", what, got, want)
		return
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok || math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("%s[%s] = %v (present %v), oracle %v", what, k, g, ok, w)
		}
	}
}
