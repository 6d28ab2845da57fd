package baselines

import (
	"fmt"

	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/transport"
)

// BlockSync is the single-threshold gradient algorithm of [11] (Kuhn,
// Locher, Oshman, SPAA 2009), expressed in the same trigger style as AOPT
// but with exactly one level whose block size S replaces s·κ. The paper
// proves its stable local skew is Θ(S) provided S ∈ Ω(√(ρ·D)); experiment
// E3 sweeps S to expose that threshold empirically.
type BlockSync struct {
	BlockRule

	rt   *runner.Runtime
	l    []float64
	m    []float64
	mult []float64
	// nbrs[shard] is that shard's neighbor-enumeration scratch buffer,
	// reused across every node and tick so the hot path stays
	// allocation-free even when Step fans across the tick shards.
	nbrs [][]int
	// shardCtr gives each tick shard a private mode tally; Step folds the
	// blocks into the public counters after the barrier (identical totals
	// to the serial tick). decideFn/integrateFn are method values built
	// once in Init; dHTick carries the tick's increments into the phases.
	shardCtr    []blockCounters
	decideFn    func(shard, lo, hi int)
	integrateFn func(shard, lo, hi int)
	dHTick      []float64

	// FastTicks/SlowTicks count node-ticks per mode.
	FastTicks, SlowTicks uint64
}

// blockCounters is one shard's tally, padded onto its own cache line.
type blockCounters struct {
	fast, slow uint64
	_          [6]uint64
}

var _ runner.Algorithm = (*BlockSync)(nil)

// NewBlockSync constructs the baseline; S must be positive.
func NewBlockSync(s, rho, mu float64) (*BlockSync, error) {
	if s <= 0 {
		return nil, fmt.Errorf("baselines: block size S must be positive, got %v", s)
	}
	if mu <= 0 || rho <= 0 {
		return nil, fmt.Errorf("baselines: rho and mu must be positive")
	}
	return &BlockSync{BlockRule: BlockRule{S: s, Rho: rho, Mu: mu, Iota: 0.05}}, nil
}

// Name implements runner.Algorithm.
func (b *BlockSync) Name() string { return "blocksync" }

// Init implements runner.Algorithm.
func (b *BlockSync) Init(rt *runner.Runtime) {
	b.rt = rt
	n := rt.N()
	b.l = make([]float64, n)
	b.m = make([]float64, n)
	b.mult = make([]float64, n)
	for i := range b.mult {
		b.mult[i] = 1
	}
	shards := rt.TickShards()
	b.nbrs = make([][]int, shards)
	b.shardCtr = make([]blockCounters, shards)
	b.decideFn = b.decideShard
	b.integrateFn = b.integrateShard
}

// OnEdgeUp implements runner.Algorithm; neighbors are used immediately (the
// [11] algorithm has no leveled insertion).
func (b *BlockSync) OnEdgeUp(_, _ int, _ sim.Time) {}

// OnEdgeDown implements runner.Algorithm.
func (b *BlockSync) OnEdgeDown(_, _ int, _ sim.Time) {}

// OnBeacon implements runner.Algorithm: max-estimate flooding as in AOPT.
func (b *BlockSync) OnBeacon(to, _ int, bc transport.Beacon, d transport.Delivery) {
	b.m[to] = b.Flood(b.m[to], bc.M, d.MinTransit, b.rt.Tick())
}

// OnControl implements runner.Algorithm.
func (b *BlockSync) OnControl(_, _ int, _ any, _ transport.Delivery) {}

// Step implements runner.Algorithm: decide every mode from pre-tick state,
// then integrate — the same two sharded phases as the core algorithm (see
// core.Algorithm.Step for the determinism argument), so E03 compares
// algorithms under identical substrate parallelism.
func (b *BlockSync) Step(_ sim.Time, dH []float64) {
	b.dHTick = dH
	b.rt.ParallelTick(len(b.l), b.decideFn)
	b.rt.ParallelTick(len(b.l), b.integrateFn)
	for i := range b.shardCtr {
		c := &b.shardCtr[i]
		b.FastTicks += c.fast
		b.SlowTicks += c.slow
		*c = blockCounters{}
	}
}

// decideShard runs the mode-decision phase for nodes [lo, hi).
func (b *BlockSync) decideShard(shard, lo, hi int) {
	c := &b.shardCtr[shard]
	for u := lo; u < hi; u++ {
		b.mult[u] = b.decideMode(u, shard, c)
	}
}

// integrateShard runs the clock-integration phase for nodes [lo, hi).
func (b *BlockSync) integrateShard(_, lo, hi int) {
	dH := b.dHTick
	for u := lo; u < hi; u++ {
		b.l[u], b.m[u] = b.Integrate(b.l[u], b.m[u], b.mult[u], dH[u])
	}
}

func (b *BlockSync) decideMode(u, shard int, c *blockCounters) float64 {
	lu := b.l[u]
	b.nbrs[shard] = b.rt.Dyn.Neighbors(u, b.nbrs[shard][:0])
	var votes BlockVotes
	for _, v := range b.nbrs[shard] {
		est, ok := b.rt.Est.Estimate(u, v)
		if !ok {
			continue
		}
		eps := b.rt.Est.Eps(u, v)
		lp, okP := b.rt.Dyn.Params(u, v)
		if !okP {
			continue
		}
		b.Vote(&votes, lu, est, eps, lp.Tau)
	}
	mult, fast := b.Mode(votes, lu, b.m[u], b.mult[u])
	if fast {
		c.fast++
	} else {
		c.slow++
	}
	return mult
}

// Logical implements runner.Algorithm.
func (b *BlockSync) Logical(u int) float64 { return b.l[u] }

// MaxEstimate implements runner.Algorithm.
func (b *BlockSync) MaxEstimate(u int) float64 { return b.m[u] }

// SetLogical supports corrupted-start experiments.
func (b *BlockSync) SetLogical(u int, v float64) {
	b.l[u] = v
	b.m[u] = v
}

// BlockRule is the per-node step rule of [11]: the mode decision from
// neighbour estimates, the logical-clock integration and the max-estimate
// flood. It holds no state, so BlockSync (every node of a simulated
// network) and the live daemon (one node per goroutine) run the same
// float operations in the same order.
type BlockRule struct {
	// S is the block size (target local skew scale).
	S float64
	// Rho, Mu, Iota as in the core algorithm.
	Rho, Mu, Iota float64
}

// BlockVotes is one node's tally of its neighbours' votes for a mode
// decision; the zero value is an empty tally.
type BlockVotes struct {
	fastWitness, fastBlocked bool
	slowWitness, slowBlocked bool
}

// Vote folds one neighbour into v: lu is the node's logical clock, est the
// neighbour estimate with error bound eps, tau the link's τ.
func (r BlockRule) Vote(v *BlockVotes, lu, est, eps, tau float64) {
	delta := r.S / 20
	if est-lu >= r.S-eps {
		v.fastWitness = true
	}
	if lu-est > r.S+2*r.Mu*tau+eps {
		v.fastBlocked = true
	}
	if lu-est >= 1.5*r.S-delta-eps {
		v.slowWitness = true
	}
	if est-lu > 1.5*r.S+delta+eps+r.Mu*(1+r.Rho)*tau {
		v.slowBlocked = true
	}
}

// Mode picks the node's rate multiplier from its votes, its logical clock
// lu, its max estimate m and its current multiplier mult; fast reports
// whether the tick counts as a fast-mode tick.
func (r BlockRule) Mode(v BlockVotes, lu, m, mult float64) (next float64, fast bool) {
	switch {
	case v.slowWitness && !v.slowBlocked:
		return 1, false
	case v.fastWitness && !v.fastBlocked:
		return 1 + r.Mu, true
	case lu >= m-1e-12:
		return 1, false
	case lu <= m-r.Iota:
		return 1 + r.Mu, true
	default:
		return mult, mult > 1
	}
}

// Integrate advances logical clock l and max estimate m by one tick of
// hardware increment dh at multiplier mult.
func (r BlockRule) Integrate(l, m, mult, dh float64) (float64, float64) {
	oneMinus := (1 - r.Rho) / (1 + r.Rho)
	l += mult * dh
	if m <= l {
		return l, l
	}
	m += oneMinus * dh
	if m < l {
		m = l
	}
	return l, m
}

// Flood folds a received max estimate bm into m, crediting the certified
// minimum transit less one tick of discretization.
func (r BlockRule) Flood(m, bm, minTransit, tick float64) float64 {
	credit := minTransit - tick
	if credit < 0 {
		credit = 0
	}
	if cand := bm + (1-r.Rho)*credit; cand > m {
		return cand
	}
	return m
}
