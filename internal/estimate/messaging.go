package estimate

import (
	"math"
	"sync/atomic"

	"repro/internal/topo"
	"repro/internal/transport"
)

// MessagingConfig carries the protocol parameters the certified error bound
// depends on.
type MessagingConfig struct {
	// Rho is the hardware clock drift bound ρ.
	Rho float64
	// Mu is the logical rate boost µ (logical rates lie in
	// [1−ρ, (1+ρ)(1+µ)]).
	Mu float64
	// BeaconInterval is the real-time period between beacons per node.
	BeaconInterval float64
	// TickSlop is the extra error allowed for discrete integration (one
	// tick of the fastest logical rate); fold dt·(1+ρ)(1+µ) in here.
	TickSlop float64
	// Centered shifts estimates up by half the one-sided error bound so the
	// certified error becomes symmetric and half as large.
	Centered bool
	// ReferenceLayout selects the map-backed sample store instead of the
	// default flat slab keyed by link handle. Kept for differential pinning
	// (TestMessagingLayoutDifferential); see DESIGN.md §Structure-of-arrays.
	ReferenceLayout bool
}

// sample is the last beacon received on a directed edge: one 32-byte record.
type sample struct {
	lSent      float64
	hwAtRecv   float64
	minTransit float64
	valid      bool
}

// Messaging is the protocol-based estimate layer. The receiver of a beacon
// stores (L_sent, H_recv, certified minimum transit) and, when queried,
// advances the sample at the certified minimum logical rate:
//
//	L̃ᵛᵤ = L_sent + (1−ρ)·minTransit + (1−ρ)/(1+ρ)·(H_u(now) − H_u(recv))
//
// which is a guaranteed lower bound on L_v (the paper's η-relation, §3.1).
type Messaging struct {
	dyn *topo.Dynamic
	cfg MessagingConfig
	hw  func(int) float64
	// samples[u] maps peer → latest sample (reference layout only).
	samples []map[int]*sample
	// Flat layout (default): recs[h] is u's sample of v, where h is the
	// topology's directed-edge handle for (u, v) (topo.Dynamic.Link). The
	// slab is sized and the new link's two records zeroed when a link is
	// declared (declares are serial engine/scenario operations), so
	// RecordBeacon — which runs concurrently for distinct receivers under
	// the sharded event drain — only writes its receiver's own records.
	recs []sample
	// Misses counts estimate queries that found no certified sample. It is
	// incremented atomically: Estimate runs concurrently for distinct u
	// under the sharded tick, and an atomic sum is the one per-query effect
	// whose total stays exact (and deterministic) under any interleaving.
	Misses uint64
}

// NewMessaging creates the layer for n nodes. hw returns a node's current
// hardware clock. In the default flat layout the layer sizes its slab for
// every link already declared on dyn and subscribes to future declares, so
// beacon ingestion never grows it. The flat layout keys records by the
// topology's link handles, so it panics on a reference-layout topology.
func NewMessaging(n int, dyn *topo.Dynamic, hw func(int) float64, cfg MessagingConfig) *Messaging {
	m := &Messaging{dyn: dyn, cfg: cfg, hw: hw}
	if cfg.ReferenceLayout {
		m.samples = make([]map[int]*sample, n)
		for i := range m.samples {
			m.samples[i] = make(map[int]*sample)
		}
		return m
	}
	if dyn.ReferenceLayout() {
		panic("estimate: flat Messaging store needs link handles; the reference-layout topology has none")
	}
	for _, id := range dyn.DeclaredEdges(nil) {
		m.register(id.U, id.V)
	}
	dyn.OnDeclare(m.register)
	return m
}

// register sizes the slab for a newly declared link and zeroes its two
// records: the handle may be a freed link's, and a new link must report no
// sample until a beacon crosses it. The reference map instead keeps an
// undeclared pair's entries, but they are already invalid: a link is only
// undeclared once both sides are down, and each EdgeDown invalidates its
// direction.
func (m *Messaging) register(a, b int) {
	h, _, _, _ := m.dyn.Link(a, b)
	h &^= 1
	if grow := int(h) + 2 - len(m.recs); grow > 0 {
		m.recs = append(m.recs, make([]sample, grow)...)
	}
	m.recs[h], m.recs[h+1] = sample{}, sample{}
}

// RecordBeacon ingests a delivered beacon; the runner calls this for every
// beacon delivery. In the flat layout it is one probe of the receiver's
// adjacency row and one record write.
func (m *Messaging) RecordBeacon(to, from int, b transport.Beacon, d transport.Delivery) {
	s := sample{lSent: b.L, hwAtRecv: m.hw(to), minTransit: d.MinTransit, valid: true}
	if m.samples != nil {
		if r, ok := m.samples[to][from]; ok {
			*r = s
		} else {
			m.samples[to][from] = &s
		}
		return
	}
	// A beacon on a never-declared edge is unobservable (Estimate gates on
	// visibility, which requires a declared link), so dropping it is
	// behaviorally identical to the reference map's orphan entry — and keeps
	// this concurrent path free of structural mutation.
	if h, _, _, ok := m.dyn.Link(to, from); ok {
		m.recs[h] = s
	}
}

// Invalidate drops the sample for a directed edge (called on edge loss, so a
// stale pre-outage sample is never reused after a reappearance). It is one
// probe on u's adjacency row — O(deg u), independent of the network size,
// and allocation-free — so EdgeDown storms (churn waves, partitions) cost
// one short sorted scan per lost directed edge;
// BenchmarkMessagingInvalidate pins both properties across network sizes.
func (m *Messaging) Invalidate(u, v int) {
	if m.samples != nil {
		if r := m.samples[u][v]; r != nil {
			r.valid = false
		}
		return
	}
	if h, _, _, ok := m.dyn.Link(u, v); ok {
		m.recs[h].valid = false
	}
}

// maxSampleAgeHW returns the maximum hardware-clock age a certified sample
// may have: one beacon interval plus delay jitter, at the fastest hardware
// rate, plus slop. Package-level (rather than a method) because the
// node-local LocalBeacons store applies the identical rule.
func maxSampleAgeHW(cfg MessagingConfig, p topo.LinkParams) float64 {
	real := cfg.BeaconInterval + p.Uncertainty + cfg.TickSlop
	return real * (1 + cfg.Rho)
}

// advanceSample advances a stored beacon sample to the present: credit the
// certified minimum transit (minus slop for discrete integration) and the
// elapsed receiver hardware time, both at guaranteed-minimum logical rates.
// This is the η-relation estimate both Messaging and LocalBeacons serve.
func advanceSample(cfg MessagingConfig, lSent, minTransit, ageHW float64) float64 {
	rho := cfg.Rho
	credit := minTransit - cfg.TickSlop
	if credit < 0 {
		credit = 0
	}
	return lSent + (1-rho)*credit + (1-rho)/(1+rho)*ageHW
}

// Estimate implements Layer.
func (m *Messaging) Estimate(u, v int) (float64, bool) {
	h, p, sees, _ := m.dyn.Link(u, v)
	if !sees {
		return 0, false
	}
	var r *sample
	if m.samples != nil {
		r = m.samples[u][v]
	} else {
		r = &m.recs[h]
	}
	if r == nil || !r.valid {
		atomic.AddUint64(&m.Misses, 1)
		return 0, false
	}
	ageHW := m.hw(u) - r.hwAtRecv
	if ageHW < 0 || ageHW > maxSampleAgeHW(m.cfg, *p) {
		atomic.AddUint64(&m.Misses, 1)
		return 0, false
	}
	// The transit credit inside advanceSample covers only fully elapsed
	// integration ticks (clocks advance in steps); TickSlop compensates.
	est := advanceSample(m.cfg, r.lSent, r.minTransit, ageHW)
	if m.cfg.Centered {
		est += oneSidedBound(m.cfg, *p) / 2
	}
	return est, true
}

// oneSidedBound is the worst-case L_v − L̃ᵛᵤ for an uncentered estimate:
// actual transit up to Delay at the fastest logical rate versus credit for
// only (1−ρ)·(Delay−Uncertainty), plus the staleness window during which v
// may run at (1+ρ)(1+µ) while the estimate advances at (1−ρ)²/(1+ρ).
func oneSidedBound(cfg MessagingConfig, p topo.LinkParams) float64 {
	rho, mu := cfg.Rho, cfg.Mu
	fast := (1 + rho) * (1 + mu)
	slowAdvance := (1 - rho) * (1 - rho) / (1 + rho)
	minCredit := p.Delay - p.Uncertainty - cfg.TickSlop
	if minCredit < 0 {
		minCredit = 0
	}
	transitErr := fast*p.Delay - (1-rho)*minCredit
	staleWindow := cfg.BeaconInterval + p.Uncertainty + cfg.TickSlop
	return transitErr + (fast-slowAdvance)*staleWindow
}

// Eps implements Layer.
func (m *Messaging) Eps(u, v int) float64 {
	p, ok := m.dyn.Params(u, v)
	if !ok {
		return math.Inf(1)
	}
	b := oneSidedBound(m.cfg, p)
	if m.cfg.Centered {
		return b / 2
	}
	return b
}

// ConcurrentQueries implements ConcurrentLayer: a query for node u reads
// only u's own sample records, u's hardware clock and the (tick-stable)
// topology; the sole shared write is the atomic miss counter. Samples are
// written by beacon deliveries and invalidations, which are engine events —
// never inside an integration tick.
func (m *Messaging) ConcurrentQueries() bool { return true }

// NodeLocalQueries implements NodeLocalLayer: everything Estimate and Eps
// read for querying node u — u's sample records, the hardware clock hw(u),
// link parameters — is u-local or tick-stable, so queries stay correct while
// integration ticks are applied lazily per node (tick-crossing windows).
func (m *Messaging) NodeLocalQueries() bool { return true }
