package main

import "strconv"

// The what-if request stream. Request i of a run is a pure function of
// (seed, i): a splitmix64 hash picks its kind and its working-set entry,
// so the same seed always yields the same bytes whichever connection
// sends them, and a fresh plan or scenario is unique within the run.

// reqKind classifies a request of the mix.
type reqKind uint8

const (
	// kindHit repeats a (grid, preset, rank) entry primed during set-up.
	kindHit reqKind = iota
	// kindFreshPlan carries a never-seen config seed: a cache miss that
	// sim.Evaluator prices.
	kindFreshPlan
	// kindFreshScenario names a never-seen node count, so Engine.Open
	// builds a new frozen scenario (and its evaluator) first.
	kindFreshScenario
	// kindAutotune is a POST /v1/autotune search over one grid.
	kindAutotune
	numKinds
)

var kindNames = [numKinds]string{"hit", "fresh-plan", "fresh-scenario", "autotune"}

// Mix shares, per 100 000 requests.
const (
	mixScale         = 100_000
	autotuneShare    = 100    // 0.1 %
	freshScenShare   = 1_000  // 1 %
	freshPlanShare   = 20_000 // 20 %
	hitVerifyOneIn   = 100    // a seeded 1 % of hits is verified too
	freshSeedBase    = 1_000_000_000
	freshNodesOffset = 17 // above the 16 nodes every working-set grid needs
)

// gridSpec is one parallel mapping of the working set.
type gridSpec struct {
	model      string
	tp, dp, pp int
}

// Working set: 4 grids × 4 presets × 4 rank settings = 64 plans, all
// primed into the cache during set-up. Every grid fits the 16-node,
// 128-GPU paper cluster.
var (
	wsGrids = []gridSpec{
		{"2.5b", 8, 4, 4},
		{"2.5b", 8, 8, 2},
		{"8.3b", 8, 4, 4},
		{"9.2b", 8, 2, 8},
	}
	wsPresets = []string{"baseline", "cb", "cbfe", "cbfesc"}
	wsRanks   = []int{0, 2, 4, 8} // 0 leaves the preset's rank
)

// request is one generated request: its kind, its parameters (the
// oracle re-derives the expected answer from them) and its body.
type request struct {
	kind   reqKind
	grid   int   // index into wsGrids
	preset int   // index into wsPresets
	rank   int   // cb_rank override, 0 = none
	nodes  int   // node-count override, 0 = none
	seed   int64 // config seed override, 0 = none
	verify bool  // checked against the oracle after the run
}

// path returns the request's endpoint.
func (r request) path() string {
	if r.kind == kindAutotune {
		return "/v1/autotune"
	}
	return "/v1/price"
}

// splitmix64 hashes (seed, i, salt) to 64 well-mixed bits.
func splitmix64(seed, i int64, salt uint64) uint64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(i)*0xBF58476D1CE4E5B9 ^ salt*0x94D049BB133111EB
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// requestAt generates request i of the seed's stream.
func requestAt(seed, i int64) request {
	u := splitmix64(seed, i, 1) % mixScale
	h := splitmix64(seed, i, 2)
	r := request{
		grid:   int(h % uint64(len(wsGrids))),
		preset: int((h >> 8) % uint64(len(wsPresets))),
		rank:   wsRanks[(h>>16)%uint64(len(wsRanks))],
	}
	switch {
	case u < autotuneShare:
		r.kind = kindAutotune
		r.verify = true
	case u < autotuneShare+freshScenShare:
		r.kind = kindFreshScenario
		r.nodes = freshNodesOffset + int(i)
		r.verify = true
	case u < autotuneShare+freshScenShare+freshPlanShare:
		r.kind = kindFreshPlan
		r.seed = freshSeedBase + i
		r.verify = true
	default:
		r.kind = kindHit
		r.verify = splitmix64(seed, i, 3)%hitVerifyOneIn == 0
	}
	return r
}

// appendBody renders the request's JSON body onto b.
func (r request) appendBody(b []byte) []byte {
	g := wsGrids[r.grid]
	b = append(b, `{"grid":{"model":"`...)
	b = append(b, g.model...)
	b = append(b, `","tp":`...)
	b = strconv.AppendInt(b, int64(g.tp), 10)
	b = append(b, `,"dp":`...)
	b = strconv.AppendInt(b, int64(g.dp), 10)
	b = append(b, `,"pp":`...)
	b = strconv.AppendInt(b, int64(g.pp), 10)
	if r.nodes != 0 {
		b = append(b, `,"nodes":`...)
		b = strconv.AppendInt(b, int64(r.nodes), 10)
	}
	b = append(b, '}')
	if r.kind != kindAutotune {
		b = append(b, `,"config":{"preset":"`...)
		b = append(b, wsPresets[r.preset]...)
		b = append(b, '"')
		if r.rank != 0 {
			b = append(b, `,"cb_rank":`...)
			b = strconv.AppendInt(b, int64(r.rank), 10)
		}
		if r.seed != 0 {
			b = append(b, `,"seed":`...)
			b = strconv.AppendInt(b, r.seed, 10)
		}
		b = append(b, '}')
	}
	return append(b, '}')
}
