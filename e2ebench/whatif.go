package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/autotune"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/whatif"
)

// The load is a closed loop: each connection sends its next request
// only after the previous reply, at most one connection per core. On
// a 2-core host, pacing sub-millisecond sends with Go timers measures
// the generator rather than the server: 4k req/s paced that way gave a
// p50 of 0.65 ms against 0.077 ms closed-loop. So the benchmark reports
// closed-loop throughput and latency at a stated connection count.

// maxConns bounds the client connections (and client goroutines).
const maxConns = 2

// tailQuantile is the /v1/price tail reported as latency_tail_ms:
// p99.9, with about 250 samples beyond it in a 20 s run. p99 sits where
// the 1 % fresh-scenario requests meet the rest of the mix, so it jumps
// between the two: across seeds it spread 1.10–1.50 ms where p99.9
// stayed within 4.7–5.3 ms.
const tailQuantile = 0.999

// windowDur is the throughput window: throughput_per_s is the median of
// per-window completion rates.
const windowDur = 500 * time.Millisecond

// service is one running what-if server on a loopback socket plus the
// client that drives it.
type service struct {
	srv    *whatif.Server
	hs     *http.Server
	done   chan struct{}
	url    string
	client *http.Client
	rec    *obs.Recorder // engine span recorder (traced runs only)
	log    *handlerLog   // handler timing wrapper (traced runs only)
}

// handlerLog wraps the server's public http.Handler and records each
// request's handler time by the kind the client tagged it with — the
// benchmark's own span around the program's HTTP layer.
type handlerLog struct {
	next http.Handler
	mu   sync.Mutex
	durs [numKinds][]time.Duration
}

const kindHeader = "X-Bench-Kind"

// reset drops every recorded duration.
func (h *handlerLog) reset() {
	h.mu.Lock()
	h.durs = [numKinds][]time.Duration{}
	h.mu.Unlock()
}

func (h *handlerLog) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(t0)
	var k reqKind
	for i, name := range kindNames {
		if name == r.Header.Get(kindHeader) {
			k = reqKind(i)
		}
	}
	h.mu.Lock()
	h.durs[k] = append(h.durs[k], d)
	h.mu.Unlock()
}

// calibrate is the efficiency optcc-serve passes to its server, computed
// afresh (experiments.CalibratedEfficiency caches it per process, which
// would hide its cost from every set-up after the first).
func calibrate() (float64, error) {
	return sim.Calibrate(sim.PaperScenario(cluster.GPT25B, core.Baseline()), experiments.PaperIterationTarget)
}

// startService builds the engine and server as optcc-serve does, serves
// it on a loopback port, opens the working-set grids and primes the
// cache with every working-set plan.
func startService(eff float64, traced bool) (*service, error) {
	var rec *obs.Recorder
	if traced {
		rec = obs.NewRecorder([]string{"whatif"}, 1<<17)
	}
	srv := whatif.NewServer(whatif.NewEngine(whatif.Options{Recorder: rec}), whatif.ServerOptions{Efficiency: eff})
	var h http.Handler = srv
	var log *handlerLog
	if traced {
		log = &handlerLog{next: srv}
		h = log
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{
		srv:  srv,
		hs:   &http.Server{Handler: h},
		done: make(chan struct{}),
		url:  "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
		}},
		rec: rec,
		log: log,
	}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	var buf bytes.Buffer
	for g := range wsGrids {
		for p := range wsPresets {
			for _, rank := range wsRanks {
				req := request{kind: kindHit, grid: g, preset: p, rank: rank}
				status, err := s.send(req, &buf)
				if err != nil || status != http.StatusOK {
					s.close()
					return nil, fmt.Errorf("priming %s: status %d: %v: %s", req.appendBody(nil), status, err, buf.Bytes())
				}
			}
		}
	}
	return s, nil
}

// close stops the server and waits for its accept loop to return.
func (s *service) close() {
	s.hs.Close()
	<-s.done
	s.client.CloseIdleConnections()
}

// send posts one request and reads the whole reply into buf.
func (s *service) send(r request, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(http.MethodPost, s.url+r.path(), bytes.NewReader(r.appendBody(nil)))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(kindHeader, kindNames[r.kind])
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// reqRecord is one completed request: the benchmark's client-side span
// (start and end relative to the drive's origin) and, for requests the
// oracle checks, the reply body.
type reqRecord struct {
	i          int64
	kind       reqKind
	start, end time.Duration
	status     int
	err        error
	body       []byte
}

// drive runs the closed loop against s until the deadline: conns
// goroutines each take the next stream index, send, and wait for the
// reply. Records are appended in completion order per connection.
func drive(s *service, seed int64, next *atomic.Int64, origin, deadline time.Time) []reqRecord {
	conns := min(maxConns, runtime.NumCPU())
	out := make([][]reqRecord, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			recs := make([]reqRecord, 0, 1<<16)
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				r := requestAt(seed, i)
				t0 := time.Now()
				status, err := s.send(r, &buf)
				rec := reqRecord{i: i, kind: r.kind, start: t0.Sub(origin), end: time.Since(origin), status: status, err: err}
				if r.verify {
					rec.body = bytes.Clone(buf.Bytes())
				}
				recs = append(recs, rec)
			}
			out[c] = recs
		}(c)
	}
	wg.Wait()
	var all []reqRecord
	for _, recs := range out {
		all = append(all, recs...)
	}
	return all
}

// latencies returns the client-side latencies of the records whose kind
// passes keep.
func latencies(recs []reqRecord, keep func(reqKind) bool) []time.Duration {
	var out []time.Duration
	for _, r := range recs {
		if keep(r.kind) {
			out = append(out, r.end-r.start)
		}
	}
	return out
}

func isPrice(k reqKind) bool { return k != kindAutotune }

// windowRates counts price replies completed in each whole window of
// [from, to) and returns the per-window rates in replies per second.
func windowRates(recs []reqRecord, from, to time.Duration) []float64 {
	n := int((to - from) / windowDur)
	if n < 1 {
		n = 1
	}
	counts := make([]int, n)
	for _, r := range recs {
		if !isPrice(r.kind) || r.end < from {
			continue
		}
		if w := int((r.end - from) / windowDur); w < n {
			counts[w]++
		}
	}
	rates := make([]float64, n)
	for w, c := range counts {
		rates[w] = float64(c) / windowDur.Seconds()
	}
	return rates
}

// oracle recomputes expected answers on private evaluators: the same
// scenario the server resolves, priced directly by sim.Evaluator, and
// autotune winners from a direct autotune.Search.
type oracle struct {
	eff     float64
	evals   map[int]*sim.Evaluator // per working-set grid
	winners map[int]string         // autotune winner key per grid
}

func newOracle(eff float64) *oracle {
	return &oracle{eff: eff, evals: map[int]*sim.Evaluator{}, winners: map[int]string{}}
}

// scenario resolves a request's grid the way the service documents it:
// the paper scenario of the model, the request's mapping and node count,
// and the calibrated efficiency.
func (o *oracle) scenario(r request) sim.Scenario {
	g := wsGrids[r.grid]
	sc := sim.PaperScenario(whatif.Models[g.model], core.Baseline())
	sc.Map = cluster.Mapping{TP: g.tp, DP: g.dp, PP: g.pp}
	if r.nodes != 0 {
		sc.Topo.Nodes = r.nodes
	}
	sc.Topo.Efficiency = o.eff
	return sc
}

// evaluator returns a private evaluator for the request's scenario:
// shared per working-set grid, built afresh for a fresh scenario.
func (o *oracle) evaluator(r request) (*sim.Evaluator, error) {
	if r.nodes != 0 {
		return sim.NewEvaluator(o.scenario(r))
	}
	if ev, ok := o.evals[r.grid]; ok {
		return ev, nil
	}
	ev, err := sim.NewEvaluator(o.scenario(r))
	if err != nil {
		return nil, err
	}
	o.evals[r.grid] = ev
	return ev, nil
}

// price is the expected estimate of a price request.
func (o *oracle) price(r request) (sim.Estimate, error) {
	cfg := whatif.Presets[wsPresets[r.preset]]()
	if r.rank != 0 {
		cfg.CBRank = r.rank
	}
	if r.seed != 0 {
		cfg.Seed = r.seed
	}
	ev, err := o.evaluator(r)
	if err != nil {
		return sim.Estimate{}, err
	}
	return ev.Price(cfg, 0)
}

// winner is the expected autotune winner key for the request's grid,
// searched with the service's documented defaults.
func (o *oracle) winner(r request) (string, error) {
	if k, ok := o.winners[r.grid]; ok {
		return k, nil
	}
	ev, err := o.evaluator(r)
	if err != nil {
		return "", err
	}
	res, err := autotune.Search(ev, autotune.DefaultSpace(wsGrids[r.grid].pp), autotune.DefaultQualityModel(),
		autotune.Options{Seed: 1, ExhaustiveLimit: 4096, Top: 12})
	if err != nil {
		return "", err
	}
	k := res.Winner.Candidate.Key()
	o.winners[r.grid] = k
	return k, nil
}

// estimatesEqual is bit-exact Estimate equality (a nil and an empty
// bucket list are equal: JSON omits both).
func estimatesEqual(a, b sim.Estimate) bool {
	if a.IterationSec != b.IterationSec ||
		a.ExposedPPSec != b.ExposedPPSec ||
		a.ExposedDPSec != b.ExposedDPSec ||
		a.ExposedEmbSec != b.ExposedEmbSec ||
		a.PPBytesPerReplica != b.PPBytesPerReplica ||
		a.DPBytes != b.DPBytes ||
		a.EmbBytes != b.EmbBytes ||
		len(a.Buckets) != len(b.Buckets) {
		return false
	}
	for i := range a.Buckets {
		if a.Buckets[i] != b.Buckets[i] {
			return false
		}
	}
	return true
}

// verify checks every record of a run: each reply must be 200, and each
// kept reply — every fresh plan, fresh scenario and autotune, and the
// seeded sample of hits — must equal the oracle's answer bit for bit.
// A request that fails either way is one failed operation. It returns
// the autotune replies for the per-layer table.
func verify(t *tally, seed int64, recs []reqRecord, o *oracle) ([]whatif.AutotuneResponse, error) {
	var tunes []whatif.AutotuneResponse
	for _, rec := range recs {
		r := requestAt(seed, rec.i)
		ok := rec.err == nil && rec.status == http.StatusOK
		if ok && rec.body != nil {
			var err error
			ok, err = checkReply(o, r, rec.body, &tunes)
			if err != nil {
				return nil, err
			}
		}
		t.attempted++
		if !ok {
			t.failed++
			if len(t.notes) < 20 {
				t.notes = append(t.notes, fmt.Sprintf("request %d (%s): status %d err %v body %.200s",
					rec.i, kindNames[rec.kind], rec.status, rec.err, rec.body))
			}
		}
	}
	return tunes, nil
}

// checkReply compares one kept reply body with the oracle. The error is
// for oracle failures, not mismatches.
func checkReply(o *oracle, r request, body []byte, tunes *[]whatif.AutotuneResponse) (bool, error) {
	if r.kind == kindAutotune {
		var got whatif.AutotuneResponse
		if json.Unmarshal(body, &got) != nil {
			return false, nil
		}
		want, err := o.winner(r)
		if err != nil {
			return false, fmt.Errorf("oracle autotune: %w", err)
		}
		*tunes = append(*tunes, got)
		return got.WinnerKey == want, nil
	}
	var got whatif.PriceResponse
	if json.Unmarshal(body, &got) != nil {
		return false, nil
	}
	want, err := o.price(r)
	if err != nil {
		return false, fmt.Errorf("oracle price: %w", err)
	}
	return estimatesEqual(got.Estimate, want), nil
}

// runWhatif measures the what-if service end to end: set-up, then the
// closed loop for the measured seconds, then the oracle checks.
func runWhatif(o options, t *tally) (map[string]metric, error) {
	if o.trace {
		return traceWhatif(o, t)
	}
	var eff float64
	svc, setupS, err := medianSetup(setupRounds, func() (*service, error) {
		var err error
		if eff, err = calibrate(); err != nil {
			return nil, err
		}
		return startService(eff, false)
	}, (*service).close)
	if err != nil {
		return nil, err
	}
	defer svc.close()
	served, err := experiments.CalibratedEfficiency()
	if err != nil {
		return nil, err
	}
	t.check(eff == served, "calibrated efficiency %v != optcc-serve's %v", eff, served)

	var next atomic.Int64
	origin := time.Now()
	d := time.Duration(o.seconds * float64(time.Second))
	stopRSS := sampleRSS()
	recs := drive(svc, o.seed, &next, origin, origin.Add(d))
	rss := stopRSS()
	if _, err := verify(t, o.seed, recs, newOracle(eff)); err != nil {
		return nil, err
	}

	lat := ms(latencies(recs, isPrice))
	return map[string]metric{
		"setup_s":          {setupS, "s"},
		"throughput_per_s": {median(windowRates(recs, 0, d)), "1/s"},
		"latency_p50_ms":   {quantile(lat, 0.5), "ms"},
		"latency_tail_ms":  {quantile(lat, tailQuantile), "ms"},
		"rss_mb":           {rss, "MiB"},
	}, nil
}

// traceWhatif is the traced run: an untraced and a traced server (engine
// span recorder plus the handler timing wrapper) take alternating
// windows of the same mix, so their throughput ratio is the tracing
// overhead; the per-layer table comes from the traced one.
func traceWhatif(o options, t *tally) (map[string]metric, error) {
	eff, err := calibrate()
	if err != nil {
		return nil, err
	}
	plain, err := startService(eff, false)
	if err != nil {
		return nil, err
	}
	defer plain.close()
	traced, err := startService(eff, true)
	if err != nil {
		return nil, err
	}
	defer traced.close()
	eng := traced.srv.Engine()
	s0 := eng.Stats()
	fromNs := traced.rec.Now()
	traced.log.reset() // drop the priming requests

	var nextU, nextT atomic.Int64
	var recsU, recsT []reqRecord
	var ratesU, ratesT []float64
	total := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	for time.Since(start) < total-2*windowDur || len(ratesT) == 0 {
		for _, side := range []struct {
			svc   *service
			next  *atomic.Int64
			recs  *[]reqRecord
			rates *[]float64
		}{{plain, &nextU, &recsU, &ratesU}, {traced, &nextT, &recsT, &ratesT}} {
			origin := time.Now()
			recs := drive(side.svc, o.seed, side.next, origin, origin.Add(windowDur))
			*side.recs = append(*side.recs, recs...)
			*side.rates = append(*side.rates, windowRates(recs, 0, windowDur)...)
		}
	}
	s1 := eng.Stats()

	orc := newOracle(eff)
	if _, err := verify(t, o.seed, recsU, orc); err != nil {
		return nil, err
	}
	tunes, err := verify(t, o.seed, recsT, orc)
	if err != nil {
		return nil, err
	}
	t.check(traced.rec.Dropped() == 0, "engine recorder dropped %d spans", traced.rec.Dropped())

	var priceNs, priced int64
	traced.rec.Spans(0, func(sp obs.Span) {
		if sp.StartNs >= fromNs && sp.Phase == obs.PhasePrice {
			priceNs += sp.DurNs()
			priced += sp.Bytes
		}
	})
	lg := traced.log
	lg.mu.Lock()
	defer lg.mu.Unlock()
	var handlerPrice []time.Duration
	for _, k := range []reqKind{kindHit, kindFreshPlan, kindFreshScenario} {
		handlerPrice = append(handlerPrice, lg.durs[k]...)
	}
	us := func(d []time.Duration) []float64 {
		out := ms(d)
		for i := range out {
			out[i] *= 1000
		}
		return out
	}
	handlerP50 := median(us(handlerPrice))
	clientP50 := median(us(latencies(recsT, isPrice)))
	var tunePriced int
	for _, r := range tunes {
		tunePriced += r.Priced
	}
	tuneMs := ms(lg.durs[kindAutotune])
	var tuneSec float64
	for _, v := range tuneMs {
		tuneSec += v / 1000
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	hits, misses := s1.CacheHits-s0.CacheHits, s1.CacheMisses-s0.CacheMisses
	m := map[string]metric{
		"whatif.cache_hit_ratio":     {ratio(hits, hits+misses), "ratio"},
		"whatif.mean_batch":          {ratio(s1.BatchedRequests-s0.BatchedRequests, s1.Batches-s0.Batches), "count"},
		"whatif.coalesced":           {float64(s1.Coalesced - s0.Coalesced), "count"},
		"whatif.evaluators_created":  {float64(s1.EvaluatorsCreated - s0.EvaluatorsCreated), "count"},
		"whatif.handler_us_p50":      {handlerP50, "us"},
		"whatif.http_overhead_us":    {clientP50 - handlerP50, "us"},
		"whatif.fresh_scenario_us":   {median(us(lg.durs[kindFreshScenario])), "us"},
		"whatif.autotune_p50_ms":     {median(ms(latencies(recsT, func(k reqKind) bool { return k == kindAutotune }))), "ms"},
		"sim.price_us":               {float64(priceNs) / 1e3 / float64(max(priced, 1)), "us"},
		"autotune.search_ms":         {median(tuneMs), "ms"},
		"autotune.priced_per_search": {ratio(int64(tunePriced), int64(len(tunes))), "count"},
		"autotune.candidates_per_s":  {float64(tunePriced) / max(tuneSec, 1e-9), "1/s"},
		"obs.trace_overhead_pct":     {(median(ratesU)/median(ratesT) - 1) * 100, "%"},
		"obs.dropped_spans":          {float64(traced.rec.Dropped()), "count"},
	}
	return withIdleLayers(m), nil
}
