package core

// The structure-of-arrays edge-record layout (DESIGN.md §Structure-of-arrays
// layout). Every directed edge record lives at the topology's directed-edge
// handle h = 2·slot + side (topo.Dynamic.Link) in parallel slabs: the
// mutable per-record floats (upSince, lAtUp, T₀, I, κ₀), one flags byte, the
// pending handshake handle, and an index into an interned class table
// holding the five derived constants (ε, τ, T, κ, δ) — which are shared by
// every edge with the same link parameters, so a ring with uniform links
// stores them once instead of 40 bytes per record. Core keeps no adjacency
// of its own: the per-tick trigger fold walks topo's sorted row
// (topo.Dynamic.Row), so it visits records in ascending peer order (the
// estimate layer's RNG draw order) and hands each handle to the estimate
// layer unchanged.
//
// Lifecycle: records persist across edge-down (the paper's T_s := ⊥ is a
// flags clear, not a removal), and a record exists (recExists) from its
// directed edge's first edge-up, which derives its class. topo reuses a
// freed slot for the next declared link, so a Dynamic.OnDeclare hook
// (register) sizes the slabs and resets a new link's two records; nothing
// else grows or clears them. The retired map-of-pointers layout survives as
// the test-only shadow in layout_shadow_test.go; the full-run differential
// there pins this layout to it byte for byte.
//
// Concurrency: the decide phase runs evalTriggers concurrently for distinct
// nodes. Rows and slabs are only read there, except the recFlags
// decay-expiry clear in kappaAt — a single-byte write to a record owned by
// the evaluating node (distinct bytes are distinct memory locations in the
// Go memory model, so adjacent records on one word do not race). Slab growth
// and resets happen only on declares and edge-up events, which are serial.

import (
	"repro/internal/analysis"
	"repro/internal/sim"
)

// recFlags bits.
const (
	recExists uint8 = 1 << iota // record created (first edge-up seen)
	recUp
	recPreInserted
	recHaveTimes
	recDecaying
	recDynamicGrid
)

// edgeClass is one interned set of derived per-edge constants
// (Section 4.3.1).
type edgeClass struct {
	eps   float64 // estimate uncertainty ε_e of the estimate layer
	tau   float64 // detection delay τ_e
	delay float64 // message delay bound T_e
	kappa float64 // weight κ_e (eq. 9)
	delta float64 // slow-trigger slack δ_e
}

// register sizes the slabs for a newly declared link and resets its two
// records: the handle may be a freed link's, and a new link has no record
// until its first edge-up.
func (a *Algorithm) register(u, v int) {
	h, _, _, _ := a.rt.Dyn.Link(u, v)
	h &^= 1
	if grow := int(h) + 2 - len(a.recFlags); grow > 0 {
		a.recClass = append(a.recClass, make([]int32, grow)...)
		a.recFlags = append(a.recFlags, make([]uint8, grow)...)
		a.recSince = append(a.recSince, make([]float64, grow)...)
		a.recLAtUp = append(a.recLAtUp, make([]float64, grow)...)
		a.recT0 = append(a.recT0, make([]float64, grow)...)
		a.recInsDur = append(a.recInsDur, make([]float64, grow)...)
		a.recKappa0 = append(a.recKappa0, make([]float64, grow)...)
		a.recCheck = append(a.recCheck, make([]sim.Handle, grow)...)
	}
	for _, r := range [2]int32{h, h | 1} {
		a.rt.Engine.Cancel(a.recCheck[r]) // stale or zero handles are safe no-ops
		a.recClass[r], a.recFlags[r], a.recCheck[r] = 0, 0, 0
		a.recSince[r], a.recLAtUp[r], a.recT0[r], a.recInsDur[r], a.recKappa0[r] = 0, 0, 0, 0, 0
	}
}

// ensureRec returns u's record handle for edge {u,v}, creating the record
// on first use by deriving the per-edge constants from the link parameters
// and estimate layer. Returns ok=false when the link is undeclared.
func (a *Algorithm) ensureRec(u, v int) (int32, bool) {
	h, lp, _, ok := a.rt.Dyn.Link(u, v)
	if !ok || a.recFlags[h]&recExists != 0 {
		return h, ok
	}
	eps := a.rt.Est.Eps(u, v)
	kappa := analysis.Kappa(eps, lp.Tau, a.p.Mu, a.p.KappaFactor)
	_, deltaHi := analysis.DeltaRange(kappa, eps, lp.Tau, a.p.Mu)
	cls := edgeClass{
		eps:   eps,
		tau:   lp.Tau,
		delay: lp.Delay,
		kappa: kappa,
		delta: a.deltaFraction * deltaHi,
	}
	ci, have := a.classIdx[cls]
	if !have {
		ci = int32(len(a.classes))
		a.classes = append(a.classes, cls)
		a.classIdx[cls] = ci
	}
	a.recClass[h] = ci
	a.recFlags[h] = recExists
	if kappa < a.minKappa {
		a.minKappa = kappa
		a.refreshSMax()
	}
	return h, true
}

// rec returns u's existing record handle for edge {u,v}: ok is false when
// the link is undeclared or u has never seen it up.
func (a *Algorithm) rec(u, v int) (int32, bool) {
	h, _, _, ok := a.rt.Dyn.Link(u, v)
	return h, ok && a.recFlags[h]&recExists != 0
}

// kappaAt returns the weight of a record's edge at local logical time l: the
// static class weight kappa (passed in because every caller already has the
// class), or the decaying weight during a §5.5-style insertion.
func (a *Algorithm) kappaAt(h int32, kappa, l float64) float64 {
	if a.recFlags[h]&recDecaying == 0 {
		return kappa
	}
	if l <= a.recT0[h] {
		return a.recKappa0[h]
	}
	k := a.recKappa0[h] - (l-a.recT0[h])*a.p.DecayRate*a.p.Mu
	if k <= kappa {
		// Decay finished: the edge behaves like a fully inserted one.
		a.recFlags[h] &^= recDecaying
		return kappa
	}
	return k
}

// deltaAt returns the slow-trigger slack for the current weight.
func (a *Algorithm) deltaAt(cls *edgeClass, kappa float64) float64 {
	if kappa == cls.kappa {
		return cls.delta
	}
	_, hi := analysis.DeltaRange(kappa, cls.eps, cls.tau, a.p.Mu)
	return a.deltaFraction * hi
}

// level returns the highest s such that the record's peer is in N^s_self, per
// the implicit representation of Section 4.3.2.
func (a *Algorithm) level(self int, h int32) int {
	flags := a.recFlags[h]
	switch {
	case flags&recUp == 0:
		return 0
	case flags&recPreInserted != 0:
		return analysis.InfLevel
	case flags&recHaveTimes == 0:
		return 0
	case flags&recDecaying != 0 || a.p.Insertion == InsertDecaying && a.recInsDur[h] == 0:
		// §5.5 strategy: in all neighbor sets as soon as the agreed logical
		// start time is reached; safety comes from the inflated weight.
		if a.l[self] >= a.recT0[h] {
			return analysis.InfLevel
		}
		return 0
	case flags&recDynamicGrid != 0:
		return analysis.LevelAtDynamic(a.l[self], a.recT0[h], a.recInsDur[h])
	default:
		return analysis.LevelAt(a.l[self], a.recT0[h], a.recInsDur[h])
	}
}

// recState is a snapshot of one directed edge record, for tests and
// diagnostics.
type recState struct {
	up, preInserted, haveTimes, decaying bool
	upSince                              sim.Time
	t0, insDur, kappa, kappa0            float64
	eps, tau, delay, delta               float64
}

// recView returns the record state of edge {u,v} as seen by u.
func (a *Algorithm) recView(u, v int) (recState, bool) {
	h, ok := a.rec(u, v)
	if !ok {
		return recState{}, false
	}
	flags := a.recFlags[h]
	cls := a.classes[a.recClass[h]]
	return recState{
		up: flags&recUp != 0, preInserted: flags&recPreInserted != 0,
		haveTimes: flags&recHaveTimes != 0, decaying: flags&recDecaying != 0,
		upSince: a.recSince[h],
		t0:      a.recT0[h], insDur: a.recInsDur[h],
		kappa: cls.kappa, kappa0: a.recKappa0[h],
		eps: cls.eps, tau: cls.tau, delay: cls.delay, delta: cls.delta,
	}, true
}
