package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; xs need not be sorted and is
// not modified. 0 for an empty sample (the result line cannot carry NaN).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns Q1, Q2, Q3 the way Python's
// statistics.quantiles(data, n=4) computes them (the "exclusive"
// method), so a sweep's spreads read exactly as the acceptance check
// computes them.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		out[i-1] = (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return out[0], out[1], out[2]
}

// chunkRates splits consecutive per-operation durations into chunks of
// about target wall time each and returns every chunk's rate in
// work-units per second (perOp units per operation). Reporting the
// median chunk rate rather than total/elapsed keeps one host hiccup from
// moving the figure.
func chunkRates(durs []time.Duration, perOp float64, target time.Duration) []float64 {
	var rates []float64
	var sum time.Duration
	n := 0
	for _, d := range durs {
		sum += d
		n++
		if sum >= target {
			rates = append(rates, float64(n)*perOp/sum.Seconds())
			sum, n = 0, 0
		}
	}
	if len(rates) == 0 && n > 0 {
		rates = append(rates, float64(n)*perOp/sum.Seconds())
	}
	return rates
}

// ms converts durations to float milliseconds.
func ms(durs []time.Duration) []float64 {
	out := make([]float64, len(durs))
	for i, d := range durs {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

// rssSampleEvery is the resident-set sampling period.
const rssSampleEvery = 100 * time.Millisecond

// sampleRSS samples the process's resident set (VmRSS) every
// rssSampleEvery until the returned stop function is called; stop waits
// for the sampler to exit and returns the median sample in MiB. The
// median of the measured region is reported rather than the peak
// (VmHWM): the peak also holds set-up and depends on where a GC cycle
// lands — on train-cbfesc-dp2pp4 it read 28–31 MiB across seeds where
// the median stayed within 22.7–23.1 MiB.
func sampleRSS() (stop func() float64) {
	done := make(chan struct{})
	out := make(chan float64, 1)
	go func() {
		tick := time.NewTicker(rssSampleEvery)
		defer tick.Stop()
		samples := []float64{residentMiB()}
		for {
			select {
			case <-tick.C:
				samples = append(samples, residentMiB())
			case <-done:
				out <- median(samples)
				return
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-out
	}
}

// residentMiB reads the current resident set size (VmRSS) in MiB,
// falling back to the Go runtime's obtained memory where /proc is
// unavailable.
func residentMiB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// medianSetup runs setup k times and returns the last set-up's value
// with the median wall time in seconds; every earlier value is passed to
// discard.
func medianSetup[T any](k int, setup func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	secs := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i > 0 {
			discard(last)
		}
		last = v
	}
	return last, median(secs), nil
}

// runSweep runs the workload n times as child processes of this binary,
// seeds seed..seed+n−1, and prints every metric's median, quartiles and
// spread (Q3−Q1)/median — the seed-to-seed spread a bound must cover.
func runSweep(w io.Writer, n int, workload string, seed int64, seconds float64, trace int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var attempted, failed int64
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(s, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return fmt.Errorf("seed %d: parse result: %w", s, err)
		}
		attempted += res.Attempted
		failed += res.Failed
		fmt.Fprintf(w, "seed %d: %s\n", s, lines[len(lines)-1])
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "sweep %s: %d seeds from %d, %.0fs each, trace %d: %d attempted, %d failed\n",
		workload, n, seed, seconds, trace, attempted, failed)
	fmt.Fprintf(w, "%-36s %-10s %14s %14s %14s %8s\n", "metric", "unit", "median", "q1", "q3", "spread")
	for _, name := range names {
		q1, q2, q3 := quartiles(values[name])
		spread := (q3 - q1) / q2
		fmt.Fprintf(w, "%-36s %-10s %14.6g %14.6g %14.6g %8.4f\n", name, units[name], q2, q1, q3, spread)
	}
	return nil
}
