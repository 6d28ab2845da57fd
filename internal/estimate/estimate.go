// Package estimate implements the estimate layer of Section 3.1: for every
// estimate edge {u,v}, node u can obtain an estimate L̃ᵛᵤ of v's logical
// clock with a certified error bound ε (eq. 1).
//
// Two implementations are provided. Oracle realizes the abstract model
// directly: it perturbs the true clock value by an adversarially chosen
// error within ±ε, giving experiments exact control over the uncertainty.
// Messaging realizes the layer the way a real system would (and the way
// [12] describes): periodic beacons carry clock values, and the receiver
// advances the last sample at the certified minimum rate; its ε is derived
// from the protocol parameters and is verified at runtime by tests.
package estimate

import (
	"repro/internal/sim"
	"repro/internal/topo"
)

// Layer is the interface the synchronization algorithms consume.
type Layer interface {
	// Estimate returns u's current estimate of v's logical clock. ok is
	// false when no valid estimate is available (no beacon yet, or the
	// last sample is too old to be certified).
	Estimate(u, v int) (value float64, ok bool)
	// Eps returns the certified error bound for estimates on edge {u,v}:
	// |L_v(t) − L̃ᵛᵤ(t)| ≤ Eps(u,v) whenever Estimate reports ok.
	Eps(u, v int) float64
}

// ConcurrentLayer is the opt-in contract of the sharded integration tick: a
// layer whose ConcurrentQueries returns true promises that Estimate and Eps
// may be called concurrently for distinct querying nodes u while no clock
// integrates — without races, and with values independent of which shard
// asks first. The runner keeps the whole tick serial for layers that do not
// implement it, so a stateful external layer stays correct by default.
type ConcurrentLayer interface {
	ConcurrentQueries() bool
}

// NodeLocalLayer is the stronger opt-in contract tick-crossing event windows
// require: a layer whose NodeLocalQueries returns true promises that
// Estimate(u, v) and Eps(u, v) read only state owned by the querying node u
// (u's own samples and hardware clock) plus tick-stable topology — never
// another node's clock. Under that promise an estimate query stays correct
// when u's pending integration tick has been applied lazily while v's has
// not: no cross-node clock read can observe the half-applied pair. Oracle
// reads v's true clock, so it deliberately does not implement this
// interface, which keeps tick crossing disabled for oracle-backed runs.
type NodeLocalLayer interface {
	NodeLocalQueries() bool
}

// EdgeLayer is the opt-in handle-keyed query: EstimateEdge(u, h) returns
// exactly what Estimate(u, v) would, where h is u's topology directed-edge
// handle for the declared link {u, v} (topo.Dynamic.Link, topo.Handle). A
// caller that already walks u's topology row (the algorithm's trigger fold)
// then skips the layer's own adjacency probe. Callers must fall back to
// Estimate for a layer without it — a decorator that wraps a layer with
// only the Layer methods still sees every query that way — so the
// interface is resolved from the current layer value at each use.
type EdgeLayer interface {
	EstimateEdge(u int, h int32) (value float64, ok bool)
}

// ErrorPolicy chooses the oracle's estimate error within [−ε, +ε]. It plays
// the role of the estimate-layer adversary.
type ErrorPolicy interface {
	Err(u, v int, trueU, trueV, eps float64) float64
}

// ConcurrentPolicy marks error policies whose Err is safe and
// order-independent under concurrent calls with distinct u (the querying
// node). The Oracle layer is concurrent exactly when its policy is; a policy
// without the marker — notably RandomError's shared stream — keeps the tick
// serial.
type ConcurrentPolicy interface {
	ConcurrentErrs() bool
}

// ZeroError returns perfect estimates (error 0).
type ZeroError struct{}

// Err implements ErrorPolicy.
func (ZeroError) Err(_, _ int, _, _, _ float64) float64 { return 0 }

// ConcurrentErrs implements ConcurrentPolicy (stateless).
func (ZeroError) ConcurrentErrs() bool { return true }

// RandomError draws the error uniformly from [−ε, +ε] out of one shared
// stream, so the draw a query receives depends on global query order. That
// makes it inherently serial: it does NOT implement ConcurrentPolicy, and a
// network using it keeps the serial tick regardless of TickParallelism. Use
// PerNodeRandomError where the tick should shard.
type RandomError struct{ RNG *sim.RNG }

// Err implements ErrorPolicy.
func (r RandomError) Err(_, _ int, _, _, eps float64) float64 {
	return r.RNG.Uniform(-eps, eps)
}

// PerNodeRandomError draws the error uniformly from [−ε, +ε], like
// RandomError, but from a dedicated stream per querying node. Node u's draw
// sequence then depends only on u's own query history — each node queries
// its neighbors in a fixed per-tick order — so the adversary is
// deterministic under any shard fan-out, and shards never contend on a
// stream. This is the "random" policy of the public config.
//
// The streams are SplitMix64 (sim.SplitMix64), not math/rand sources: this
// policy is queried once per live edge per tick on the hottest path in the
// repository, and it scales per node. An LFG source costs ~5 KB of state
// and ~30 µs of seeding per node (5 GB / 30 s at N=10⁶) and its Uint64
// dominated the tick profile; SplitMix64 is 8 bytes per node, seeded in
// one multiply, and a handful of ALU ops per draw, while still giving
// well-distributed 64-bit uniform outputs.
type PerNodeRandomError struct {
	states []uint64
}

// NewPerNodeRandomError builds the policy for n querying nodes, deriving
// one well-separated stream per node from a single draw off rng.
func NewPerNodeRandomError(n int, rng *sim.RNG) *PerNodeRandomError {
	base := rng.Uint64()
	states := make([]uint64, n)
	for u := range states {
		// One mixing round decorrelates adjacent node seeds.
		states[u] = sim.SplitMix64(base + uint64(u)*sim.SplitMixGamma)
	}
	return &PerNodeRandomError{states: states}
}

// Err implements ErrorPolicy.
func (p *PerNodeRandomError) Err(u, _ int, _, _, eps float64) float64 {
	if u < 0 || u >= len(p.states) {
		return 0
	}
	out := sim.SplitMix64(p.states[u])
	p.states[u] += sim.SplitMixGamma
	// 53-bit mantissa → uniform in [0,1), mapped onto [−ε, +ε).
	f := float64(out>>11) / (1 << 53)
	return -eps + 2*eps*f
}

// ConcurrentErrs implements ConcurrentPolicy: distinct querying nodes touch
// distinct streams, and the sharded tick never splits one node's queries
// across shards.
func (*PerNodeRandomError) ConcurrentErrs() bool { return true }

// HoldBack always reports −ε (estimates lag behind the truth).
type HoldBack struct{}

// Err implements ErrorPolicy.
func (HoldBack) Err(_, _ int, _, _, eps float64) float64 { return -eps }

// ConcurrentErrs implements ConcurrentPolicy (stateless).
func (HoldBack) ConcurrentErrs() bool { return true }

// PushForward always reports +ε.
type PushForward struct{}

// Err implements ErrorPolicy.
func (PushForward) Err(_, _ int, _, _, eps float64) float64 { return eps }

// ConcurrentErrs implements ConcurrentPolicy (stateless).
func (PushForward) ConcurrentErrs() bool { return true }

// AntiConvergence chooses the sign that makes the neighbor look closer to u
// than it truly is: nodes ahead appear less ahead and nodes behind appear
// less behind. This is the worst adversary for convergence speed, since it
// weakens every trigger that would correct skew.
type AntiConvergence struct{}

// Err implements ErrorPolicy.
func (AntiConvergence) Err(_, _ int, trueU, trueV, eps float64) float64 {
	if trueV > trueU {
		return -eps
	}
	return eps
}

// ConcurrentErrs implements ConcurrentPolicy (stateless).
func (AntiConvergence) ConcurrentErrs() bool { return true }

// Amplify chooses the sign that makes the neighbor look farther from u than
// it truly is, over-triggering corrections (stress for stability).
type Amplify struct{}

// Err implements ErrorPolicy.
func (Amplify) Err(_, _ int, trueU, trueV, eps float64) float64 {
	if trueV > trueU {
		return eps
	}
	return -eps
}

// ConcurrentErrs implements ConcurrentPolicy (stateless).
func (Amplify) ConcurrentErrs() bool { return true }

var _, _ EdgeLayer = (*Oracle)(nil), (*Messaging)(nil)

// Oracle is the abstract-model estimate layer.
type Oracle struct {
	dyn    *topo.Dynamic
	clock  func(int) float64
	policy ErrorPolicy
}

// NewOracle builds an oracle layer. clock must return the current true
// logical clock of a node; policy may be nil for zero error.
func NewOracle(dyn *topo.Dynamic, clock func(int) float64, policy ErrorPolicy) *Oracle {
	if policy == nil {
		policy = ZeroError{}
	}
	return &Oracle{dyn: dyn, clock: clock, policy: policy}
}

// Estimate implements Layer: one probe of u's row resolves the handle.
func (o *Oracle) Estimate(u, v int) (float64, bool) {
	h, _, _, ok := o.dyn.Link(u, v)
	if !ok {
		return 0, false
	}
	return o.EstimateEdge(u, h)
}

// EstimateEdge implements EdgeLayer: peer, parameters and visibility come
// straight from the topology slabs by handle.
func (o *Oracle) EstimateEdge(u int, h int32) (float64, bool) {
	v, p, sees := o.dyn.LinkAt(h)
	if !sees {
		return 0, false
	}
	eps := p.Eps
	trueU, trueV := o.clock(u), o.clock(v)
	err := o.policy.Err(u, v, trueU, trueV, eps)
	if err > eps {
		err = eps
	}
	if err < -eps {
		err = -eps
	}
	return trueV + err, true
}

// Eps implements Layer.
func (o *Oracle) Eps(u, v int) float64 {
	p, ok := o.dyn.Params(u, v)
	if !ok {
		return 0
	}
	return p.Eps
}

// ConcurrentQueries implements ConcurrentLayer: the oracle itself only reads
// the (tick-stable) topology and clocks, so it is concurrent exactly when
// its error policy is.
func (o *Oracle) ConcurrentQueries() bool {
	c, ok := o.policy.(ConcurrentPolicy)
	return ok && c.ConcurrentErrs()
}
