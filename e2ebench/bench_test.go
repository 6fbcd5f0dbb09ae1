package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/whatif"
)

// benchmarkSpec is the part of BENCHMARK.json the benchmark must agree
// with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestNamesMatchBenchmarkJSON pins the workload and metric names and
// units the benchmark prints to the ones BENCHMARK.json declares.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if want := sortedKeys(workloads); !reflect.DeepEqual(names, want) {
		t.Errorf("workloads: BENCHMARK.json %v, benchmark %v", names, want)
	}
	e2e := map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	if !reflect.DeepEqual(e2e, endToEndUnits) {
		t.Errorf("end_to_end: BENCHMARK.json %v, benchmark %v", e2e, endToEndUnits)
	}
	layers := map[string]string{}
	for _, m := range spec.PerLayer {
		layers[m.Name] = m.Unit
	}
	if !reflect.DeepEqual(layers, perLayerUnits) {
		t.Errorf("per_layer: BENCHMARK.json %v, benchmark %v", layers, perLayerUnits)
	}
}

// TestRunsPrintDeclaredMetrics runs every workload briefly, untraced and
// traced, and checks that each prints exactly the declared metrics with
// their units, end-to-end values are positive, and nothing fails.
func TestRunsPrintDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range sortedKeys(workloads) {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, trace), func(t *testing.T) {
				var tl tally
				m, err := workloads[name](options{seed: 3, seconds: 1, trace: trace}, &tl)
				if err != nil {
					t.Fatal(err)
				}
				if tl.failed != 0 || tl.attempted == 0 {
					t.Fatalf("%d of %d failed: %v", tl.failed, tl.attempted, tl.notes)
				}
				want := endToEndUnits
				if trace {
					want = perLayerUnits
				}
				if got := sortedKeys(m); !reflect.DeepEqual(got, sortedKeys(want)) {
					t.Fatalf("metrics %v, want %v", got, sortedKeys(want))
				}
				for k, v := range m {
					if v.Unit != want[k] {
						t.Errorf("%s unit %q, want %q", k, v.Unit, want[k])
					}
					if !trace && !(v.Value > 0) {
						t.Errorf("%s = %v, want > 0", k, v.Value)
					}
				}
				if trace && m["obs.dropped_spans"].Value != 0 {
					t.Errorf("dropped spans: %v", m["obs.dropped_spans"].Value)
				}
			})
		}
	}
}

// TestStreamIsSeeded: the same seed yields a byte-identical request
// stream, another seed a different one, and the mix holds its shares
// with fresh plans and fresh scenarios unique.
func TestStreamIsSeeded(t *testing.T) {
	render := func(seed int64, n int) []byte {
		var b []byte
		for i := int64(0); i < int64(n); i++ {
			r := requestAt(seed, i)
			b = append(b, r.path()...)
			b = r.appendBody(b)
			b = append(b, '\n')
		}
		return b
	}
	const n = 200_000
	a, b := render(7, n), render(7, n)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed, different streams")
	}
	if bytes.Equal(a, render(8, n)) {
		t.Fatal("different seeds, same stream")
	}
	var counts [numKinds]int
	seeds, nodes := map[int64]bool{}, map[int]bool{}
	for i := int64(0); i < n; i++ {
		r := requestAt(7, i)
		counts[r.kind]++
		switch r.kind {
		case kindFreshPlan:
			if seeds[r.seed] {
				t.Fatalf("fresh plan seed %d repeats", r.seed)
			}
			seeds[r.seed] = true
		case kindFreshScenario:
			if nodes[r.nodes] {
				t.Fatalf("fresh scenario nodes %d repeats", r.nodes)
			}
			nodes[r.nodes] = true
		}
	}
	for k, share := range map[reqKind]int{
		kindAutotune:      autotuneShare,
		kindFreshScenario: freshScenShare,
		kindFreshPlan:     freshPlanShare,
	} {
		want := float64(n) * float64(share) / mixScale
		if got := float64(counts[k]); got < 0.8*want || got > 1.2*want {
			t.Errorf("%s: %v requests of %d, want about %v", kindNames[k], got, n, want)
		}
	}
}

// TestTrainConfigIsSeeded: the same seed yields the same training
// configuration and corpus, byte for byte.
func TestTrainConfigIsSeeded(t *testing.T) {
	for i, w := range []trainWorkload{cbfescWorkload, denseWorkload} {
		a := fmt.Sprintf("%#v %#v", w.config(5), corpusConfig(5))
		b := fmt.Sprintf("%#v %#v", w.config(5), corpusConfig(5))
		if a != b {
			t.Errorf("workload %d: config differs for one seed:\n%s\n%s", i, a, b)
		}
		if a == fmt.Sprintf("%#v %#v", w.config(6), corpusConfig(6)) {
			t.Errorf("workload %d: seeds 5 and 6 give one config", i)
		}
	}
}

// TestWrongReplyCountsAsFailure injects a wrong estimate, a wrong
// autotune winner and a failed status into verified records and checks
// each is one failed operation while the true replies pass.
func TestWrongReplyCountsAsFailure(t *testing.T) {
	const seed = 11
	orc := newOracle(0.3)
	var plan, tune int64 = -1, -1
	for i := int64(0); plan < 0 || tune < 0; i++ {
		switch requestAt(seed, i).kind {
		case kindFreshPlan:
			plan = i
		case kindAutotune:
			tune = i
		}
	}
	est, err := orc.price(requestAt(seed, plan))
	if err != nil {
		t.Fatal(err)
	}
	winner, err := orc.winner(requestAt(seed, tune))
	if err != nil {
		t.Fatal(err)
	}
	priceBody := func(iterSec float64) []byte {
		e := est
		e.IterationSec = iterSec
		b, _ := json.Marshal(whatif.PriceResponse{Estimate: e})
		return b
	}
	tuneBody := func(key string) []byte {
		b, _ := json.Marshal(whatif.AutotuneResponse{WinnerKey: key})
		return b
	}
	good := []reqRecord{
		{i: plan, kind: kindFreshPlan, status: http.StatusOK, body: priceBody(est.IterationSec)},
		{i: tune, kind: kindAutotune, status: http.StatusOK, body: tuneBody(winner)},
	}
	var tl tally
	if _, err := verify(&tl, seed, good, orc); err != nil {
		t.Fatal(err)
	}
	if tl.attempted != 2 || tl.failed != 0 {
		t.Fatalf("true replies: %d of %d failed: %v", tl.failed, tl.attempted, tl.notes)
	}
	bad := []reqRecord{
		{i: plan, kind: kindFreshPlan, status: http.StatusOK, body: priceBody(math.Nextafter(est.IterationSec, 1))},
		{i: tune, kind: kindAutotune, status: http.StatusOK, body: tuneBody(winner + "x")},
		{i: plan, kind: kindFreshPlan, status: http.StatusServiceUnavailable, body: priceBody(est.IterationSec)},
	}
	tl = tally{}
	if _, err := verify(&tl, seed, bad, orc); err != nil {
		t.Fatal(err)
	}
	if tl.attempted != 3 || tl.failed != 3 {
		t.Fatalf("injected faults: %d of %d failed, want 3 of 3", tl.failed, tl.attempted)
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
