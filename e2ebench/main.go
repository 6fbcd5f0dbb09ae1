// Command e2ebench is the repository's end-to-end benchmark. It drives
// the system only through its public APIs — train.New/TrainIteration for
// executed training, whatif.NewServer over a loopback socket for the
// what-if service, and sim/autotune as correctness oracles — on three
// seeded workloads:
//
//	train-cbfesc-dp2pp4  every Optimus-CC technique on the executed trainer
//	train-dense-dp8pp2   dense bucketed 8-way DP all-reduce, no codec work
//	whatif-mix           closed-loop /v1/price + /v1/autotune traffic
//
// One run prints, as the last line of standard output, one JSON object
// {"correct", "attempted", "failed", "metrics"}. With -trace 0 the
// metrics are the end-to-end ones (tracing off); with -trace 1 a
// separate traced run reports the per-layer breakdown read from the
// program's own span recorders. Correctness checks run outside the timed
// region; every mismatch is a failed operation.
//
// Usage (from the repository root):
//
//	bash e2ebench/run.sh --workload train-cbfesc-dp2pp4 --seed 1 --seconds 20 --trace 0
//	bash e2ebench/run.sh --sweep 10 --workload whatif-mix --seconds 20 --trace 0
//
// See e2ebench/README.md for what each workload stresses and how to read
// the per-layer table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations and correctness checks; a check that fails is a
// failed operation.
type tally struct {
	attempted, failed int64
	// notes keeps the first few failure descriptions for standard error.
	notes []string
}

// check records one correctness check.
func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		if len(t.notes) < 20 {
			t.notes = append(t.notes, fmt.Sprintf(format, args...))
		}
	}
}

// ops records n timed operations of which bad failed.
func (t *tally) ops(n, bad int64) {
	t.attempted += n
	t.failed += bad
}

// options are one run's settings.
type options struct {
	seed    int64
	seconds float64
	trace   bool
}

// runner executes one workload and returns its metrics.
type runner func(opts options, t *tally) (map[string]metric, error)

var workloads = map[string]runner{
	"train-cbfesc-dp2pp4": func(o options, t *tally) (map[string]metric, error) {
		return runTrain(cbfescWorkload, o, t)
	},
	"train-dense-dp8pp2": func(o options, t *tally) (map[string]metric, error) {
		return runTrain(denseWorkload, o, t)
	},
	"whatif-mix": runWhatif,
}

func main() {
	workload := flag.String("workload", "", "workload name (train-cbfesc-dp2pp4, train-dense-dp8pp2, whatif-mix)")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics with tracing off; 1 = traced per-layer run")
	sweep := flag.Int("sweep", 0, "run the workload this many times with seeds seed..seed+n-1 as child processes and print each metric's quartiles")
	flag.Parse()

	if _, ok := workloads[*workload]; !ok {
		fatalf("unknown workload %q", *workload)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatalf("need -seconds > 0 and -trace 0|1")
	}
	if *sweep > 0 {
		if err := runSweep(os.Stdout, *sweep, *workload, *seed, *seconds, *trace); err != nil {
			fatalf("sweep: %v", err)
		}
		return
	}
	opts := options{seed: *seed, seconds: *seconds, trace: *trace == 1}
	var t tally
	start := time.Now()
	metrics, err := workloads[*workload](opts, &t)
	if err != nil {
		fatalf("%s: %v", *workload, err)
	}
	for _, n := range t.notes {
		fmt.Fprintf(os.Stderr, "e2ebench: check failed: %s\n", n)
	}
	fmt.Fprintf(os.Stderr, "e2ebench: %s seed %d trace %d: %d attempted, %d failed, %.1fs wall\n",
		*workload, *seed, *trace, t.attempted, t.failed, time.Since(start).Seconds())
	out, err := json.Marshal(result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   metrics,
	})
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(out))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
	os.Exit(1)
}
