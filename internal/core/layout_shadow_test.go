package core

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/analysis"
	"repro/internal/drift"
	"repro/internal/estimate"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/transport"
)

// This file keeps the retired map-of-pointers edge-record layout as a
// test-only shadow (mapLayout) and pins the structure-of-arrays layout of
// soa.go to it over full runs: the Listing 1 handshake, Listing 2 insertion
// times and the Section 4.3.2 level logic are written a second time against
// one heap record per directed edge, and the triggers are evaluated by the
// literal double loop of trigger_test.go — so the production run and the
// shadow share no edge-record code at all.

// edgeRec is one node's state for a (potential) estimate edge, as described
// in Section 4.3.2: the implicit representation of all neighbor sets N^s via
// the pair (T₀, I), plus handshake bookkeeping.
type edgeRec struct {
	peer int
	// Derived per-edge constants (Section 4.3.1).
	eps   float64 // estimate uncertainty ε_e of the estimate layer
	tau   float64 // detection delay τ_e
	delay float64 // message delay bound T_e
	kappa float64 // weight κ_e (eq. 9)
	delta float64 // slow-trigger slack δ_e

	up      bool
	upSince sim.Time
	lAtUp   float64 // L_self when the edge was discovered

	// Insertion state: when haveTimes, the edge is being (or has been)
	// inserted with base T₀ and duration I. preInserted marks time-0 edges,
	// which the paper places in all neighbor sets immediately.
	preInserted bool
	haveTimes   bool
	t0          float64
	insDur      float64
	// Decaying-weight insertion (§5.5 strategy): once decaying, the edge is
	// in all neighbor sets with weight κ(l) = max(κ_e, κ₀ − (l−t0)·rate),
	// evaluated against the local logical clock l.
	decaying bool
	kappa0   float64
	// dynamicGrid marks the §7 insertion-time schedule (Lemma 7.1 offsets)
	// instead of the Listing 2 offsets.
	dynamicGrid bool

	check sim.Handle // pending handshake check (zero when none)
}

// mapLayout hosts the production algorithm for everything that does not
// touch edge records (clocks, the Listing 3 mode rule, integration, max
// estimate flooding, counters) and overrides every entry point that does.
// edges[u] maps peer → record; peers[u] lists the known peer ids in
// ascending order so trigger evaluation calls the estimate layer in the
// same order as the slab rows (a map would randomize its RNG draws).
type mapLayout struct {
	*Algorithm
	edges []map[int]*edgeRec
	peers [][]int
	ref   refEvals
}

func withMapLayout(a *Algorithm) runner.Algorithm { return &mapLayout{Algorithm: a} }

func (m *mapLayout) Init(rt *runner.Runtime) {
	m.Algorithm.Init(rt)
	m.edges = make([]map[int]*edgeRec, m.n)
	for i := range m.edges {
		m.edges[i] = make(map[int]*edgeRec)
	}
	m.peers = make([][]int, m.n)
}

func (m *mapLayout) Step(_ sim.Time, dH []float64) { refStep(m.Algorithm, dH, m.evalTriggersRef) }

func (m *mapLayout) CanStepNodes() bool { return false }

// ensureRec creates (or returns) u's record for edge {u,v}, deriving the
// per-edge constants from the link parameters and estimate layer.
func (m *mapLayout) ensureRec(u, v int) *edgeRec {
	if rec, ok := m.edges[u][v]; ok {
		return rec
	}
	lp, ok := m.rt.Dyn.Params(u, v)
	if !ok {
		return nil
	}
	eps := m.rt.Est.Eps(u, v)
	kappa := analysis.Kappa(eps, lp.Tau, m.p.Mu, m.p.KappaFactor)
	_, deltaHi := analysis.DeltaRange(kappa, eps, lp.Tau, m.p.Mu)
	rec := &edgeRec{
		peer:  v,
		eps:   eps,
		tau:   lp.Tau,
		delay: lp.Delay,
		kappa: kappa,
		delta: m.deltaFraction * deltaHi,
	}
	m.edges[u][v] = rec
	m.peers[u] = append(m.peers[u], v)
	sort.Ints(m.peers[u])
	if kappa < m.minKappa {
		m.minKappa = kappa
		m.refreshSMax()
	}
	return rec
}

func (m *mapLayout) OnEdgeUp(self, peer int, t sim.Time) {
	rec := m.ensureRec(self, peer)
	if rec == nil {
		return
	}
	rec.up = true
	rec.upSince = t
	rec.lAtUp = m.l[self]
	if t == 0 {
		rec.preInserted = true
		rec.haveTimes = false
		return
	}
	if self < peer {
		m.scheduleLeaderCheck(self, rec, t)
	}
}

func (m *mapLayout) OnEdgeDown(self, peer int, _ sim.Time) {
	rec, ok := m.edges[self][peer]
	if !ok {
		return
	}
	rec.up = false
	rec.preInserted = false
	rec.haveTimes = false
	rec.decaying = false
	m.rt.Engine.Cancel(rec.check)
	rec.check = 0
}

func (m *mapLayout) scheduleLeaderCheck(self int, rec *edgeRec, discovered sim.Time) {
	delta := m.handshakeDelta(rec.delay, rec.tau)
	needLogical := (1 + m.p.Rho) * (1 + m.p.Mu) * delta
	var attempt func(t sim.Time)
	attempt = func(t sim.Time) {
		rec.check = 0
		if !rec.up || rec.upSince != discovered {
			m.HandshakeAborts++
			return
		}
		if gap := needLogical - (m.l[self] - rec.lAtUp); gap > 0 {
			rec.check = m.rt.Engine.After(gap/(1-m.p.Rho)+m.rt.Tick(), attempt)
			return
		}
		g := m.gTilde(self, t)
		lIns := m.l[self] + g + (1+m.p.Rho)*(1+m.p.Mu)*rec.delay
		m.rt.Net.SendControl(self, rec.peer, insertEdgeMsg{LIns: lIns, GTilde: g})
		m.computeInsertionTimes(rec, lIns, g)
	}
	rec.check = m.rt.Engine.After(delta, attempt)
}

func (m *mapLayout) OnControl(to, from int, payload any, d transport.Delivery) {
	msg, ok := payload.(insertEdgeMsg)
	if !ok {
		return
	}
	rec, okRec := m.edges[to][from]
	if !okRec || !rec.up {
		m.HandshakeAborts++
		return
	}
	discovered := rec.upSince
	minWait := rec.delay + rec.tau
	maxWait := m.handshakeDelta(rec.delay, rec.tau) - rec.tau
	needLogical := (1 + m.p.Rho) * (1 + m.p.Mu) * minWait
	received := d.At
	var attempt func(t sim.Time)
	attempt = func(t sim.Time) {
		rec.check = 0
		if !rec.up || rec.upSince != discovered {
			m.HandshakeAborts++
			return
		}
		if m.l[to]-rec.lAtUp >= needLogical {
			m.computeInsertionTimes(rec, msg.LIns, msg.GTilde)
			return
		}
		if t-received < maxWait {
			rec.check = m.rt.Engine.After(m.rt.Tick(), attempt)
			return
		}
		m.HandshakeAborts++
	}
	rec.check = m.rt.Engine.After(minWait, attempt)
}

func (m *mapLayout) computeInsertionTimes(rec *edgeRec, lIns, g float64) {
	if m.p.Insertion == InsertDecaying {
		rec.t0 = lIns
		rec.insDur = 0
		rec.kappa0 = g + 4*rec.kappa
		rec.decaying = true
		rec.haveTimes = true
		m.Insertions++
		return
	}
	var insDur float64
	switch m.p.Insertion {
	case InsertDynamic:
		insDur = analysis.InsertionDurationDynamic(g, m.p.Mu, m.p.Rho, m.p.B, rec.delay, rec.tau)
		rec.dynamicGrid = true
	case InsertCustom:
		insDur = m.p.InsertionFactor * g / m.p.Mu
		rec.dynamicGrid = false
	default:
		insDur = analysis.InsertionDurationStatic(g, m.p.Mu, m.p.Rho)
		rec.dynamicGrid = false
	}
	rec.t0 = analysis.InsertionBase(lIns, insDur)
	rec.insDur = insDur
	rec.haveTimes = true
	m.Insertions++
}

func (m *mapLayout) kappaAt(rec *edgeRec, l float64) float64 {
	if !rec.decaying || l <= rec.t0 {
		if rec.decaying {
			return rec.kappa0
		}
		return rec.kappa
	}
	k := rec.kappa0 - (l-rec.t0)*m.p.DecayRate*m.p.Mu
	if k <= rec.kappa {
		rec.decaying = false
		return rec.kappa
	}
	return k
}

func (m *mapLayout) deltaAt(rec *edgeRec, kappa float64) float64 {
	if kappa == rec.kappa {
		return rec.delta
	}
	_, hi := analysis.DeltaRange(kappa, rec.eps, rec.tau, m.p.Mu)
	return m.deltaFraction * hi
}

func (m *mapLayout) level(self int, rec *edgeRec) int {
	switch {
	case !rec.up:
		return 0
	case rec.preInserted:
		return analysis.InfLevel
	case !rec.haveTimes:
		return 0
	case rec.decaying || m.p.Insertion == InsertDecaying && rec.insDur == 0:
		if m.l[self] >= rec.t0 {
			return analysis.InfLevel
		}
		return 0
	case rec.dynamicGrid:
		return analysis.LevelAtDynamic(m.l[self], rec.t0, rec.insDur)
	default:
		return analysis.LevelAt(m.l[self], rec.t0, rec.insDur)
	}
}

func (m *mapLayout) evalTriggersRef(u int, c *modeCounters) (fast, slow bool) {
	m.ref.reset()
	for _, peer := range m.peers[u] {
		rec := m.edges[u][peer]
		if !rec.up {
			continue
		}
		lvl := m.level(u, rec)
		if lvl < 1 {
			continue
		}
		est, ok := m.rt.Est.Estimate(u, rec.peer)
		if !ok {
			c.missing++
			continue
		}
		kappa := m.kappaAt(rec, m.l[u])
		m.ref.add(edgeEval{
			level: lvl, est: est,
			kappa: kappa, delta: m.deltaAt(rec, kappa),
			eps: rec.eps, tau: rec.tau,
		})
	}
	return m.ref.fast(m.Algorithm, u), m.ref.slow(m.Algorithm, u)
}

func (m *mapLayout) EdgeLevel(u, v int) int {
	rec, ok := m.edges[u][v]
	if !ok {
		return 0
	}
	return m.level(u, rec)
}

func (m *mapLayout) EdgeKappa(u, v int) float64 {
	rec, ok := m.edges[u][v]
	if !ok {
		return 0
	}
	return m.kappaAt(rec, m.l[u])
}

func (m *mapLayout) AppendNeighborLevels(u int, dst []NeighborLevel) []NeighborLevel {
	for _, peer := range m.peers[u] {
		if rec := m.edges[u][peer]; rec.up {
			dst = append(dst, NeighborLevel{Peer: peer, Level: m.level(u, rec)})
		}
	}
	return dst
}

func (m *mapLayout) recView(u, v int) (recState, bool) {
	rec, ok := m.edges[u][v]
	if !ok {
		return recState{}, false
	}
	return recState{
		up: rec.up, preInserted: rec.preInserted, haveTimes: rec.haveTimes,
		decaying: rec.decaying, upSince: rec.upSince,
		t0: rec.t0, insDur: rec.insDur, kappa: rec.kappa, kappa0: rec.kappa0,
		eps: rec.eps, tau: rec.tau, delay: rec.delay, delta: rec.delta,
	}, true
}

// diffLayouts compares a production run against a mapLayout run of the same
// case: every counter, every clock and rate multiplier, and for every
// declared directed edge the full record, its level and weight, and every
// node's visible-level list. It returns the first difference, or "".
func diffLayouts(soa *Algorithm, shadow *mapLayout, dyn *topo.Dynamic) string {
	ref := shadow.Algorithm
	type counters struct{ fast, slow, conflicts, missing, ins, aborts uint64 }
	cs := counters{soa.FastTicks, soa.SlowTicks, soa.TriggerConflicts, soa.MissingEstimates, soa.Insertions, soa.HandshakeAborts}
	cr := counters{ref.FastTicks, ref.SlowTicks, ref.TriggerConflicts, ref.MissingEstimates, ref.Insertions, ref.HandshakeAborts}
	if cs != cr {
		return fmt.Sprintf("counters soa %+v, map %+v", cs, cr)
	}
	for u := 0; u < soa.n; u++ {
		if soa.l[u] != ref.l[u] || soa.m[u] != ref.m[u] || soa.mult[u] != ref.mult[u] {
			return fmt.Sprintf("node %d: L %v vs %v, M %v vs %v, mult %v vs %v",
				u, soa.l[u], ref.l[u], soa.m[u], ref.m[u], soa.mult[u], ref.mult[u])
		}
		gs := soa.AppendNeighborLevels(u, nil)
		gr := shadow.AppendNeighborLevels(u, nil)
		if fmt.Sprint(gs) != fmt.Sprint(gr) {
			return fmt.Sprintf("node %d: neighbor levels %v vs %v", u, gs, gr)
		}
	}
	for _, id := range dyn.DeclaredEdges(nil) {
		for _, e := range [][2]int{{id.U, id.V}, {id.V, id.U}} {
			u, v := e[0], e[1]
			rs, oks := soa.recView(u, v)
			rr, okr := shadow.recView(u, v)
			if rs != rr || oks != okr {
				return fmt.Sprintf("record (%d,%d): soa %+v/%v, map %+v/%v", u, v, rs, oks, rr, okr)
			}
			if oks {
				h, _ := soa.rec(u, v)
				if gs, gr := soa.recFlags[h]&recDynamicGrid != 0, shadow.edges[u][v].dynamicGrid; gs != gr {
					return fmt.Sprintf("record (%d,%d): dynamic grid %v vs %v", u, v, gs, gr)
				}
			}
			if a, b := soa.EdgeLevel(u, v), shadow.EdgeLevel(u, v); a != b {
				return fmt.Sprintf("EdgeLevel(%d,%d) %d vs %d", u, v, a, b)
			}
			if a, b := soa.EdgeKappa(u, v), shadow.EdgeKappa(u, v); a != b {
				return fmt.Sprintf("EdgeKappa(%d,%d) %v vs %v", u, v, a, b)
			}
		}
	}
	return ""
}

// rampRun is a 16-node line on message-based estimates with an initial
// 0.6-per-hop clock ramp and chord churn every 2 time units: the ramp makes
// the fast trigger fire while the estimates come from beacon samples, and
// the churn drives edges through the handshake and insertion ladder.
func rampRun(t *testing.T, centered bool, shadow shadowFn) *harness {
	t.Helper()
	const n, tick, beacon = 16, 0.02, 0.25
	p := Params{Rho: tRho, Mu: tMu, GTilde: 15}
	rt, err := runner.New(runner.Config{
		N:              n,
		Tick:           tick,
		BeaconInterval: beacon,
		Drift:          drift.TwoGroup{Rho: p.Rho, Split: n / 2},
		Delay:          transport.RandomDelay{},
		Scenario:       &scenario.Churn{Every: 2},
		Seed:           12,
	})
	if err != nil {
		t.Fatal(err)
	}
	edges := topo.Line(n)
	for _, e := range edges {
		if err := rt.Dyn.DeclareLink(e.U, e.V, topo.DefaultLinkParams()); err != nil {
			t.Fatal(err)
		}
	}
	rt.SetEstimator(estimate.NewMessaging(n, rt.Dyn, rt.Hardware, estimate.MessagingConfig{
		Rho: p.Rho, Mu: p.Mu, BeaconInterval: beacon, TickSlop: 2 * tick, Centered: centered,
	}))
	h := attach(rt, MustNew(p), shadow)
	for u := 0; u < n; u++ {
		h.algo.SetLogical(u, 0.6*float64(u))
	}
	h.appearAll(t, edges)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	rt.Run(30)
	return h
}

// TestRecordLayoutDifferential replays full runs on the structure-of-arrays
// records and on the map shadow, on the same slab topology and estimate
// layer: the randomized trigger-differential cases (every insertion mode,
// chord churn) and the messaging fast-mode ramp, centered and not. Every
// counter, clock and edge record must agree bit for bit.
func TestRecordLayoutDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential replays take a few seconds")
	}
	for caseSeed := int64(1); caseSeed <= 12; caseSeed++ {
		soa := runTriggerDifferential(t, caseSeed, nil)
		shadow := runTriggerDifferential(t, caseSeed, withMapLayout)
		if d := diffLayouts(soa.algo, shadow.hosted.(*mapLayout), soa.rt.Dyn); d != "" {
			t.Errorf("seed %d: SoA records diverged from the map shadow: %s", caseSeed, d)
		}
	}
	for _, centered := range []bool{false, true} {
		soa := rampRun(t, centered, nil)
		shadow := rampRun(t, centered, withMapLayout)
		t.Logf("ramp centered=%v: %d fast, %d slow, %d missing-estimate ticks",
			centered, soa.algo.FastTicks, soa.algo.SlowTicks, soa.algo.MissingEstimates)
		if soa.algo.FastTicks == 0 {
			t.Errorf("ramp centered=%v never entered fast mode: the case does not cross fast mode", centered)
		}
		if d := diffLayouts(soa.algo, shadow.hosted.(*mapLayout), soa.rt.Dyn); d != "" {
			t.Errorf("ramp centered=%v: SoA records diverged from the map shadow: %s", centered, d)
		}
	}
}
