package collective

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/compress"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// Group is a set of ranks in ring order bound to a link class. All of its
// collectives operate on one buffer per member rank (bufs[i] belongs to
// ranks[i]) — the in-process stand-in for each rank's device memory.
//
// Collectives come in two flavours: the blocking methods (AllReduce,
// AllReduceCompressed, Broadcast) and their Async variants, which issue
// the operation and return a *Pending handle immediately. The blocking
// methods are issue+wait wrappers over the async ones, so both paths
// execute the identical deterministic schedule.
//
// A group may have several operations in flight at once (issued from one
// goroutine, so each rank's op queue sees them in issue order); their
// per-op descriptors are recycled through a free list, so the steady
// state allocates nothing.
type Group struct {
	rt    *Runtime
	class Class
	ranks []int

	// tag labels this group's trace spans (the trainer tags each DP group
	// with its stage index); −1 means untagged.
	tag int

	// denseReduce forces AllReduceCompressed to densify sparse payloads
	// and reduce through the dense reconstruction path even for
	// sparse-native families — the oracle knob the equivalence tests and
	// the sparse-vs-densified benchmarks flip.
	denseReduce bool

	// free recycles op descriptors between issues, one list per op kind
	// so that only compressed ops' descriptors grow ship buffers. Pending
	// handles are returned here by Wait; issue and wait may run on
	// different goroutines, hence the lock.
	mu   sync.Mutex
	free [numOpKinds][]*Pending
}

// SetDensifiedReduce toggles the densified oracle path for compressed
// all-reduces (off by default: sparse-native families reduce sparsely).
// Must not be called while operations are in flight.
func (g *Group) SetDensifiedReduce(on bool) { g.denseReduce = on }

// SetTag labels the group's trace spans with a stage index (−1 clears).
// Must not be called while operations are in flight.
func (g *Group) SetTag(tag int) { g.tag = tag }

type opKind int

const (
	opAllReduce opKind = iota
	opAllReduceCompressed
	opBroadcast
	numOpKinds
)

// Pending is one issued collective operation. Wait blocks until every
// member rank has finished its share and then recycles the descriptor:
// a handle is dead after Wait returns, and Wait must be called exactly
// once per issued operation (the blocking wrappers do so internally).
//
// The descriptor is written by the issuing goroutine and read by the
// rank workers after they receive their task — the op-queue channel
// receive is the happens-before edge, exactly as for the ring's step
// tokens.
type Pending struct {
	g     *Group
	kind  opKind
	bufs  []*tensor.Matrix
	efs   []*compress.ErrorFeedback
	scale float64
	root  int
	// opBytes is the dense wire size of one broadcast hop.
	opBytes int64
	offs    []int // chunk offsets, len(ranks)+1
	// recons holds the wire path's received reconstructions, which are
	// pooled and go back to the pool when the op finishes.
	recons []*tensor.Matrix
	// ships holds the in-memory compressed path's per-member copies of
	// the reconstructions. The descriptor owns them and reuses them on
	// every compressed op it carries, so how the members of concurrent
	// ops interleave never changes the pool's traffic.
	ships []tensor.Matrix
	// sparse marks a compressed op whose every compressor is sparse-native
	// (and the group's densified-oracle knob is off): members ship sparse
	// payload copies through spl instead of dense reconstructions.
	sparse bool
	spl    []*tensor.Sparse
	viewA  []tensor.Matrix // per-member destination view headers
	viewB  []tensor.Matrix // per-member source view headers
	wg     sync.WaitGroup

	// issueNs is the dispatch timestamp on the recorder's clock (only
	// stamped when a recorder is attached): the op's trace span runs
	// issue→last-member-finish, so queueing shows up as span length.
	issueNs int64

	// remaining counts member ranks still executing (Done polls it).
	remaining atomic.Int32
	// wire tallies the bytes this operation actually put on the
	// transport, summed over every member's sends — the executed
	// per-operation volume the bucket crosscheck tests reconcile
	// against plan and simulator predictions.
	wire atomic.Int64
}

// Size returns the number of member ranks.
func (g *Group) Size() int { return len(g.ranks) }

// Ranks returns the member ranks in ring (and reduction) order.
func (g *Group) Ranks() []int { return append([]int(nil), g.ranks...) }

// Class returns the link class the group's traffic is accounted on.
func (g *Group) Class() Class { return g.class }

// AllReduce sets every buffer to scale·Σ bufs, element-wise: scale = 1/D
// is the data-parallel average, scale = 1 the §6 embedding sum. The
// schedule is the Thakur ring — reduce-scatter then all-gather over D
// chunk views, 2(D−1) steps, per-rank volume 2V·(D−1)/D — and the
// reduction applies in flat ring order, so the result is bit-identical to
// the serial reference sum at any rank count (see the package comment).
func (g *Group) AllReduce(bufs []*tensor.Matrix, scale float64) {
	g.AllReduceAsync(bufs, scale).Wait()
}

// AllReduceAsync issues AllReduce and returns immediately. The buffers
// must not be touched until the returned handle's Wait returns.
func (g *Group) AllReduceAsync(bufs []*tensor.Matrix, scale float64) *Pending {
	p := g.prep(opAllReduce, bufs, scale)
	if len(g.ranks) == 1 {
		if g.rt.local[g.ranks[0]] {
			if scale != 1 {
				bufs[0].Scale(scale)
			}
		}
		return p
	}
	g.accountSteps(2 * (len(g.ranks) - 1))
	p.dispatch()
	return p
}

// AllReduceCompressed is the lossy variant: each rank compresses its own
// buffer through its private error-feedback compressor (efs[i] belongs to
// ranks[i]; residuals carry across calls, §2.3), the compressed payloads
// ride a ring all-gather (D−1 steps, payload wire bytes accounted), and
// every rank reduces the reconstructions in flat ring order into its
// buffer. The result matches the serial per-group compress-then-average
// semantics bit for bit.
func (g *Group) AllReduceCompressed(bufs []*tensor.Matrix, efs []*compress.ErrorFeedback, scale float64) {
	g.AllReduceCompressedAsync(bufs, efs, scale).Wait()
}

// AllReduceCompressedAsync issues AllReduceCompressed and returns
// immediately. Buffers and compressors belong to the operation until the
// returned handle's Wait returns.
func (g *Group) AllReduceCompressedAsync(bufs []*tensor.Matrix, efs []*compress.ErrorFeedback, scale float64) *Pending {
	if len(efs) != len(g.ranks) {
		panic(fmt.Sprintf("collective: %d compressors for %d ranks", len(efs), len(g.ranks)))
	}
	p := g.prep(opAllReduceCompressed, bufs, scale)
	p.efs = efs
	// The whole op must pick one reduction representation: every member
	// reads every member's payload slot, so a mixed sparse/dense op would
	// read unset slots. Sparse-native only when every compressor is.
	p.sparse = !g.denseReduce
	for _, ef := range efs {
		if !ef.SparseNative() {
			p.sparse = false
			break
		}
	}
	if len(g.ranks) == 1 {
		// Degenerate ring: compress/reconstruct locally so the error-
		// feedback residual sequence matches the serial semantics.
		if !g.rt.local[g.ranks[0]] {
			return p
		}
		if p.sparse {
			pl, _ := efs[0].CompressWithFeedbackSparse(bufs[0])
			bufs[0].Zero()
			tensor.SpAxpyInto(bufs[0], scale, &pl.Sparse)
			g.rt.spOps.Add(1)
			return p
		}
		_, recon := efs[0].CompressWithFeedback(bufs[0])
		bufs[0].CopyFrom(recon)
		if scale != 1 {
			bufs[0].Scale(scale)
		}
		return p
	}
	g.accountSteps(len(g.ranks) - 1)
	p.dispatch()
	return p
}

// Broadcast copies the root member's buffer into every other member's
// buffer over a ring pipeline: D−1 messages of the full volume, D−1
// steps. root indexes the member (position in ring order), not the global
// rank.
func (g *Group) Broadcast(bufs []*tensor.Matrix, root int) {
	g.BroadcastAsync(bufs, root).Wait()
}

// BroadcastAsync issues Broadcast and returns immediately.
func (g *Group) BroadcastAsync(bufs []*tensor.Matrix, root int) *Pending {
	if root < 0 || root >= len(g.ranks) {
		panic(fmt.Sprintf("collective: broadcast root %d outside group of %d", root, len(g.ranks)))
	}
	p := g.prep(opBroadcast, bufs, 1)
	p.root = root
	p.opBytes = bufs[0].SizeBytes(compress.ElemBytes)
	if len(g.ranks) == 1 {
		return p
	}
	g.accountSteps(len(g.ranks) - 1)
	p.dispatch()
	return p
}

// accountSteps accounts an operation's synchronized steps exactly once
// per operation across the whole grid: steps are a per-op (not per-send)
// quantity, so in a process-per-rank run only the process owning the
// group's first member books them — the aggregate over processes then
// equals the in-process count.
func (g *Group) accountSteps(n int) {
	if g.rt.local[g.ranks[0]] {
		g.rt.tr.AddSteps(g.class, n)
	}
}

// getOp pops a recycled descriptor of the given kind (or builds the
// group's next one).
func (g *Group) getOp(kind opKind) *Pending {
	g.mu.Lock()
	if n := len(g.free[kind]); n > 0 {
		p := g.free[kind][n-1]
		g.free[kind] = g.free[kind][:n-1]
		g.mu.Unlock()
		return p
	}
	g.mu.Unlock()
	d := len(g.ranks)
	return &Pending{
		g:      g,
		offs:   make([]int, d+1),
		recons: make([]*tensor.Matrix, d),
		ships:  make([]tensor.Matrix, d),
		spl:    make([]*tensor.Sparse, d),
		viewA:  make([]tensor.Matrix, d),
		viewB:  make([]tensor.Matrix, d),
	}
}

// putOp recycles a finished descriptor.
func (g *Group) putOp(p *Pending) {
	p.bufs = nil
	p.efs = nil
	g.mu.Lock()
	g.free[p.kind] = append(g.free[p.kind], p)
	g.mu.Unlock()
}

// prep validates the buffers and loads a fresh op descriptor.
func (g *Group) prep(kind opKind, bufs []*tensor.Matrix, scale float64) *Pending {
	if len(bufs) != len(g.ranks) {
		panic(fmt.Sprintf("collective: %d buffers for %d ranks", len(bufs), len(g.ranks)))
	}
	r0, c0 := bufs[0].Shape()
	for _, b := range bufs[1:] {
		if r, c := b.Shape(); r != r0 || c != c0 {
			panic(fmt.Sprintf("collective: buffer shape %dx%d != %dx%d", r, c, r0, c0))
		}
	}
	p := g.getOp(kind)
	p.kind = kind
	p.bufs = bufs
	p.efs = nil
	p.sparse = false
	p.scale = scale
	p.wire.Store(0)
	p.chunkOffsets(r0 * c0)
	return p
}

// chunkOffsets computes the balanced D-way partition of n elements:
// chunk c covers [offs[c], offs[c+1]), sizes differing by at most one
// element (odd sizes and n < D — empty chunks — are fine).
func (p *Pending) chunkOffsets(n int) {
	d := len(p.g.ranks)
	base, rem := n/d, n%d
	off := 0
	for c := 0; c < d; c++ {
		p.offs[c] = off
		off += base
		if c < rem {
			off++
		}
	}
	p.offs[d] = off
}

// dispatch hands one task per local member to the rank workers. Tasks
// enter each rank's op queue in issue order, so multiple in-flight
// operations of one group execute in the same order on every member —
// the property that keeps the flat-rank-order reduction deterministic
// with overlap. In a process-per-rank run the non-local members execute
// in their own processes (every process issues the same op sequence);
// here they simply have no worker, so Wait only tracks the local share.
// An op with no local member completes immediately as a no-op.
func (p *Pending) dispatch() {
	g := p.g
	p.issueNs = g.rt.rec.Now()
	local := 0
	for _, r := range g.ranks {
		if g.rt.work[r] != nil {
			local++
		}
	}
	p.wg.Add(local)
	p.remaining.Store(int32(local))
	for m, r := range g.ranks {
		if ch := g.rt.work[r]; ch != nil {
			ch <- task{p: p, member: m}
		}
	}
}

// Wait blocks until the operation has finished on every member rank,
// then recycles the descriptor. The handle must not be used afterwards.
func (p *Pending) Wait() { p.WaitBytes() }

// WaitBytes is Wait, additionally returning the operation's executed
// wire volume (see WireBytes) — the last moment it can be read, since
// waiting recycles the descriptor.
func (p *Pending) WaitBytes() int64 {
	p.wg.Wait()
	n := p.wire.Load()
	p.g.putOp(p)
	return n
}

// Done reports whether the operation has finished on every member rank
// (without blocking and without consuming the handle — Wait must still
// be called).
func (p *Pending) Done() bool { return p.remaining.Load() == 0 }

// WireBytes returns the bytes this operation has put on the transport so
// far, summed over every member's sends: 2V·(D−1) for a dense all-reduce
// of a V-byte buffer, (D−1)·Σ payloads for a compressed one, (D−1)·V for
// a broadcast. Only stable once Done reports true; callers that need the
// executed volume must read it between Done and Wait (or from the value
// Wait leaves behind — see the trainer's bucket log).
func (p *Pending) WireBytes() int64 { return p.wire.Load() }

// exec runs member m's share of the operation (called on rank workers).
// Remote runtimes execute the wire twins, which ship chunk and payload
// data inside messages instead of reading peer buffers.
func (p *Pending) exec(m int) {
	switch {
	case p.g.rt.remote:
		switch p.kind {
		case opAllReduce:
			p.runAllReduceWire(m)
		case opAllReduceCompressed:
			p.runAllReduceCompressedWire(m)
		case opBroadcast:
			p.runBroadcastWire(m)
		}
	case p.kind == opAllReduce:
		p.runAllReduce(m)
	case p.kind == opAllReduceCompressed:
		p.runAllReduceCompressed(m)
	case p.kind == opBroadcast:
		p.runBroadcast(m)
	}
	if p.remaining.Add(-1) == 0 {
		// Last member out: record the operation's issue→finish span — its
		// Bytes field carries the op's full executed wire volume, so the
		// per-link-class span sums reconcile exactly against the transport
		// counters — and, for compressed ops, return the pooled
		// reconstructions (wire path) or sparse payload copies to the
		// pool; only now is every member done reading them.
		g := p.g
		if rec := g.rt.rec; rec != nil {
			var ph obs.Phase
			switch p.kind {
			case opAllReduce:
				ph = obs.PhaseAllReduce
			case opAllReduceCompressed:
				ph = obs.PhaseAllReduceCompressed
			case opBroadcast:
				ph = obs.PhaseBroadcast
			}
			rec.RecordSpan(g.rt.recOpsBase+int(g.class), ph, linkOf(g.class),
				p.issueNs, rec.Now(), p.wire.Load(), g.tag, -1, -1)
		}
		if p.kind == opAllReduceCompressed {
			for i, r := range p.recons {
				if r != nil {
					g.rt.pool.Put(r)
					p.recons[i] = nil
				}
			}
			for i, s := range p.spl {
				if s != nil {
					g.rt.pool.PutSparse(s)
					p.spl[i] = nil
				}
			}
		}
	}
}

// chunkBytes returns chunk c's wire size at the dense element width.
func (p *Pending) chunkBytes(c int) int64 {
	return int64(p.offs[c+1]-p.offs[c]) * compress.ElemBytes
}

// send puts one step token on the transport and tallies the op's
// executed wire volume.
func (p *Pending) send(self, right int, bytes int64) {
	p.g.rt.tr.Send(p.g.class, self, right, Msg{Bytes: bytes})
	p.wire.Add(bytes)
}

// mod returns x mod d for possibly-negative x.
func mod(x, d int) int { return ((x % d) + d) % d }

// runAllReduce executes member m's ring schedule. Step tokens carry both
// the byte accounting and the happens-before edges that make the
// shared-memory reads race-free; the race-enabled equivalence tests
// execute exactly this path.
func (p *Pending) runAllReduce(m int) {
	g := p.g
	d := len(g.ranks)
	tr, cls := g.rt.tr, g.class
	self, right, left := g.ranks[m], g.ranks[mod(m+1, d)], g.ranks[mod(m-1, d)]

	// Reduce-scatter rounds: at step t the ring forwards chunk (m−t).
	for t := 0; t < d-1; t++ {
		p.send(self, right, p.chunkBytes(mod(m-t, d)))
		tr.Recv(cls, self, left)
	}

	// Deterministic reduction of the owned segment (chunk m+1).
	seg := mod(m+1, d)
	p.reduceSegment(m, p.offs[seg], p.offs[seg+1])

	// All-gather rounds: chunk (m+1−t) goes right, chunk (m−t) arrives
	// from the left member's buffer and is copied into ours.
	for t := 0; t < d-1; t++ {
		p.send(self, right, p.chunkBytes(mod(m+1-t, d)))
		tr.Recv(cls, self, left)
		c := mod(m-t, d)
		lo, hi := p.offs[c], p.offs[c+1]
		if hi > lo {
			va, vb := &p.viewA[m], &p.viewB[m]
			p.bufs[m].SliceInto(va, lo, hi)
			p.bufs[mod(m-1, d)].SliceInto(vb, lo, hi)
			va.CopyFrom(vb)
		}
	}
}

// runAllReduceCompressed executes member m's compressed schedule:
// compress locally, all-gather the payloads around the ring (each step
// forwards the payload received on the previous one, so variable payload
// sizes are accounted exactly), then reduce every rank's reconstruction
// in flat ring order into this member's buffer.
func (p *Pending) runAllReduceCompressed(m int) {
	if p.sparse {
		p.runAllReduceCompressedSparse(m)
		return
	}
	g := p.g
	d := len(g.ranks)
	tr, cls := g.rt.tr, g.class
	self, right, left := g.ranks[m], g.ranks[mod(m+1, d)], g.ranks[mod(m-1, d)]

	// The reconstruction is the compressor's own scratch, overwritten by
	// its next same-shape compression — which an in-flight successor op
	// sharing this compressor may issue before every member here has
	// reduced it. Ship a copy in this member's descriptor-owned buffer
	// instead; the descriptor is recycled only after every member is done.
	pl, recon := p.efs[m].CompressWithFeedback(p.bufs[m])
	ship := &p.ships[m]
	n := recon.NumElements()
	if cap(ship.Data) < n {
		ship.Data = make([]float64, n)
	}
	*ship = tensor.Matrix{Rows: recon.Rows, Cols: recon.Cols, Data: ship.Data[:n]}
	copy(ship.Data, recon.Data)
	wire := pl.WireBytes()
	for t := 0; t < d-1; t++ {
		p.send(self, right, wire)
		wire = tr.Recv(cls, self, left).Bytes
	}

	buf := p.bufs[m]
	buf.Zero()
	for i := range p.ships {
		buf.Add(&p.ships[i])
	}
	if p.scale != 1 {
		buf.Scale(p.scale)
	}
}

// reduceTile is the element count of the scratch tile reduceSegment sums
// through. Every tile has the same shape, and NewRuntime reserves one in
// the pool per rank worker, which holds at most one at a time: so every
// tile Get hits, however the workers of concurrent ops interleave.
const reduceTile = 256

// reduceSegment sets elements [lo, hi) of member m's buffer to scale·Σ
// over every member's buffer, added in flat ring order from +0 — the
// serial reference order — one pooled tile of partial sums at a time.
// Writes stay inside this member's segment; reads of other buffers touch
// only that segment, which no other member writes before its all-gather
// token arrives.
func (p *Pending) reduceSegment(m, lo, hi int) {
	if hi <= lo {
		return
	}
	pool := p.g.rt.pool
	tile := pool.GetUninit(1, reduceTile) // cleared per chunk below
	dst := p.bufs[m].Data
	for c := lo; c < hi; c += reduceTile {
		e := min(c+reduceTile, hi)
		sum := tile.Data[:e-c]
		clear(sum)
		for _, b := range p.bufs {
			for i, v := range b.Data[c:e] {
				sum[i] += v
			}
		}
		if p.scale != 1 {
			for i := range sum {
				sum[i] *= p.scale
			}
		}
		copy(dst[c:e], sum)
	}
	pool.Put(tile)
}

// SparseReduceCapFraction is the density cap of the sparse merge-union
// reduction: when the payloads' summed nnz exceeds this fraction of the
// dense element count, the worst-case union is dense enough that the
// per-coordinate merge bookkeeping (a branchy two-pointer walk per
// operand pair) costs more than one streaming dense pass, so the
// reduction falls back to scatter-adding the payloads into the zeroed
// dense buffer. Either way the per-coordinate addition order is the
// flat ring order, so the crossover never changes results — only which
// loop produces them (the accounting lands in SparseReduceStats, and
// the crossover test drives an op across the cap to pin both sides).
const SparseReduceCapFraction = 0.5

// runAllReduceCompressedSparse is the sparse-native twin of
// runAllReduceCompressed: ship the compressed index/value payload
// itself (no dense reconstruction anywhere), then reduce by merge-union
// in flat ring order — per coordinate, the same left-to-right addition
// sequence as the densified oracle, hence bit-identical at tol 0.
func (p *Pending) runAllReduceCompressedSparse(m int) {
	g := p.g
	d := len(g.ranks)
	tr, cls := g.rt.tr, g.class
	pool := g.rt.pool
	self, right, left := g.ranks[m], g.ranks[mod(m+1, d)], g.ranks[mod(m-1, d)]

	// Like the dense path's reconstruction, the payload aliases the
	// compressor's scratch; ship a pooled copy so an in-flight successor
	// op on the same compressor cannot clobber it. The op's last member
	// returns the copies to the pool.
	pl, _ := p.efs[m].CompressWithFeedbackSparse(p.bufs[m])
	ship := pool.GetSparse(p.bufs[m].Rows, p.bufs[m].Cols)
	ship.CopyFrom(&pl.Sparse)
	p.spl[m] = ship
	wire := pl.WireBytes()
	for t := 0; t < d-1; t++ {
		p.send(self, right, wire)
		wire = tr.Recv(cls, self, left).Bytes
	}

	// After d−1 ring steps every member's payload write happens-before
	// this point (the same token chain the dense path relies on). All
	// members see the same payloads, so the cap decision is uniform.
	buf := p.bufs[m]
	total := 0
	for _, sp := range p.spl {
		total += sp.NNZ()
	}
	if float64(total) > SparseReduceCapFraction*float64(buf.NumElements()) {
		if m == 0 {
			g.rt.spFallbacks.Add(1)
		}
		buf.Zero()
		for _, sp := range p.spl {
			tensor.SpAxpyInto(buf, 1, sp)
		}
		if p.scale != 1 {
			buf.Scale(p.scale)
		}
		return
	}
	if m == 0 {
		g.rt.spOps.Add(1)
	}
	sa, sb := pool.GetSparse(buf.Rows, buf.Cols), pool.GetSparse(buf.Rows, buf.Cols)
	cur, next := p.spl[0], sa
	for i := 1; i < d; i++ {
		tensor.MergeUnionInto(next, cur, p.spl[i])
		if next == sa {
			cur, next = sa, sb
		} else {
			cur, next = sb, sa
		}
	}
	buf.Zero()
	tensor.SpAxpyInto(buf, p.scale, cur)
	pool.PutSparse(sa)
	pool.PutSparse(sb)
}

// runBroadcast executes member m's share of the ring pipeline rooted at
// member p.root.
func (p *Pending) runBroadcast(m int) {
	g := p.g
	d := len(g.ranks)
	tr, cls := g.rt.tr, g.class
	self, right, left := g.ranks[m], g.ranks[mod(m+1, d)], g.ranks[mod(m-1, d)]
	rel := mod(m-p.root, d)
	if rel > 0 {
		tr.Recv(cls, self, left)
		p.bufs[m].CopyFrom(p.bufs[mod(m-1, d)])
	}
	if rel < d-1 {
		p.send(self, right, p.opBytes)
	}
}
