package core

// The structure-of-arrays edge-record layout (DESIGN.md §Structure-of-arrays
// layout). Every directed edge record is one int32 slot into parallel slabs:
// the mutable per-record floats (upSince, lAtUp, T₀, I, κ₀), one flags byte,
// the pending handshake handle, and an index into an interned class table
// holding the five derived constants (ε, τ, T, κ, δ) — which are shared by
// every edge with the same link parameters, so a ring with uniform links
// stores them once instead of 40 bytes per record. rows maps (node, peer) →
// slot with peers pre-sorted, so the per-tick trigger fold streams contiguous
// slabs in ascending peer order (the estimate layer's RNG draw order).
//
// Record slots are append-only: records persist across edge-down (the
// paper's T_s := ⊥ is a flags clear, not a removal), so no free list is
// needed here — topo owns undeclare-level lifecycle. The retired
// map-of-pointers layout survives as the test-only shadow in
// layout_shadow_test.go; the full-run differential there pins this layout to
// it byte for byte.
//
// Concurrency: the decide phase runs evalTriggers concurrently for distinct
// nodes. Rows and slabs are only read there, except the recFlags
// decay-expiry clear in kappaAt — a single-byte write to a slot owned by
// the evaluating node (distinct bytes are distinct memory locations in the
// Go memory model, so adjacent slots on one word do not race). Structural
// growth (ensureSlot) happens only in edge-up events, which are serial.

import (
	"repro/internal/analysis"
	"repro/internal/sim"
)

// recFlags bits.
const (
	recUp uint8 = 1 << iota
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

// ensureSlot creates (or finds) u's record slot for edge {u,v}, deriving
// the per-edge constants from the link parameters and estimate layer.
// Returns ok=false when the link is undeclared.
func (a *Algorithm) ensureSlot(u, v int) (int32, bool) {
	if slot, ok := a.rows.Find(u, int32(v)); ok {
		return slot, true
	}
	lp, ok := a.rt.Dyn.Params(u, v)
	if !ok {
		return 0, false
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
	slot := int32(len(a.recClass))
	a.recPeer = append(a.recPeer, int32(v))
	a.recClass = append(a.recClass, ci)
	a.recFlags = append(a.recFlags, 0)
	a.recSince = append(a.recSince, 0)
	a.recLAtUp = append(a.recLAtUp, 0)
	a.recT0 = append(a.recT0, 0)
	a.recInsDur = append(a.recInsDur, 0)
	a.recKappa0 = append(a.recKappa0, 0)
	a.recCheck = append(a.recCheck, 0)
	a.rows.Insert(u, int32(v), slot)
	if kappa < a.minKappa {
		a.minKappa = kappa
		a.refreshSMax()
	}
	return slot, true
}

// kappaAt returns the weight of a slot's edge at local logical time l: the
// static class weight kappa (passed in because every caller already has the
// class), or the decaying weight during a §5.5-style insertion.
func (a *Algorithm) kappaAt(slot int32, kappa, l float64) float64 {
	if a.recFlags[slot]&recDecaying == 0 {
		return kappa
	}
	if l <= a.recT0[slot] {
		return a.recKappa0[slot]
	}
	k := a.recKappa0[slot] - (l-a.recT0[slot])*a.p.DecayRate*a.p.Mu
	if k <= kappa {
		// Decay finished: the edge behaves like a fully inserted one.
		a.recFlags[slot] &^= recDecaying
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

// level returns the highest s such that the slot's peer is in N^s_self, per
// the implicit representation of Section 4.3.2.
func (a *Algorithm) level(self int, slot int32) int {
	flags := a.recFlags[slot]
	switch {
	case flags&recUp == 0:
		return 0
	case flags&recPreInserted != 0:
		return analysis.InfLevel
	case flags&recHaveTimes == 0:
		return 0
	case flags&recDecaying != 0 || a.p.Insertion == InsertDecaying && a.recInsDur[slot] == 0:
		// §5.5 strategy: in all neighbor sets as soon as the agreed logical
		// start time is reached; safety comes from the inflated weight.
		if a.l[self] >= a.recT0[slot] {
			return analysis.InfLevel
		}
		return 0
	case flags&recDynamicGrid != 0:
		return analysis.LevelAtDynamic(a.l[self], a.recT0[slot], a.recInsDur[slot])
	default:
		return analysis.LevelAt(a.l[self], a.recT0[slot], a.recInsDur[slot])
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
	slot, ok := a.rows.Find(u, int32(v))
	if !ok {
		return recState{}, false
	}
	flags := a.recFlags[slot]
	cls := a.classes[a.recClass[slot]]
	return recState{
		up: flags&recUp != 0, preInserted: flags&recPreInserted != 0,
		haveTimes: flags&recHaveTimes != 0, decaying: flags&recDecaying != 0,
		upSince: a.recSince[slot],
		t0:      a.recT0[slot], insDur: a.recInsDur[slot],
		kappa: cls.kappa, kappa0: a.recKappa0[slot],
		eps: cls.eps, tau: cls.tau, delay: cls.delay, delta: cls.delta,
	}, true
}
