package core

import (
	"fmt"
	"testing"

	"repro/internal/drift"
	"repro/internal/estimate"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/transport"
)

// countingLayer decorates an estimate layer with a query count and only the
// estimate.Layer methods, the way an external tracing decorator does. It
// does not implement estimate.EdgeLayer, so the trigger fold must reach it
// by peer id.
type countingLayer struct {
	inner   estimate.Layer
	queries int
}

func (l *countingLayer) Estimate(u, v int) (float64, bool) {
	l.queries++
	return l.inner.Estimate(u, v)
}

func (l *countingLayer) Eps(u, v int) float64 { return l.inner.Eps(u, v) }

// churnRing runs a 24-node ring with chord churn for 30 time units on the
// oracle layer (per-node random error, so the fingerprint depends on the
// query order) or on message-based estimates. With decorate, a
// countingLayer replaces rt.Est after Start. It returns a fingerprint of
// every clock, rate multiplier and counter, and the decorator (nil when
// undecorated).
func churnRing(t *testing.T, messaging, decorate bool) (string, *countingLayer) {
	t.Helper()
	const n, tick, beacon = 24, 0.02, 0.25
	// Decaying-weight insertion admits a chord to every neighbor set as soon
	// as its handshake's start time passes, so the fold queries chords too.
	p := Params{Rho: tRho, Mu: tMu, GTilde: 3, Insertion: InsertDecaying, DecayRate: 1}
	churn := &scenario.Churn{Every: 0.5}
	rt, err := runner.New(runner.Config{
		N:              n,
		Tick:           tick,
		BeaconInterval: beacon,
		Drift:          drift.TwoGroup{Rho: p.Rho, Split: n / 2},
		Delay:          transport.RandomDelay{},
		Scenario:       churn,
		Seed:           21,
	})
	if err != nil {
		t.Fatal(err)
	}
	ring := topo.Ring(n)
	for _, e := range ring {
		if err := rt.Dyn.DeclareLink(e.U, e.V, testLink()); err != nil {
			t.Fatal(err)
		}
	}
	algo := MustNew(p)
	if messaging {
		rt.SetEstimator(estimate.NewMessaging(n, rt.Dyn, rt.Hardware, estimate.MessagingConfig{
			Rho: p.Rho, Mu: p.Mu, BeaconInterval: beacon, TickSlop: 2 * tick,
		}))
	} else {
		rt.SetEstimator(estimate.NewOracle(rt.Dyn, algo.Logical, estimate.NewPerNodeRandomError(n, sim.NewRNG(5))))
	}
	h := attach(rt, algo, nil)
	for u := 0; u < n; u++ {
		algo.SetLogical(u, 0.3*float64(u%7))
	}
	h.appearAll(t, ring)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	var c *countingLayer
	if decorate {
		c = &countingLayer{inner: rt.Est}
		rt.Est = c
	}
	rt.Run(30)
	if churn.Err != nil || churn.Toggles == 0 || algo.Insertions == 0 {
		t.Fatalf("churn did not exercise insertions: err %v, %d toggles, %d insertions", churn.Err, churn.Toggles, algo.Insertions)
	}
	// %v prints the shortest representation that round-trips, so equal
	// strings mean bit-identical clocks.
	return fmt.Sprint(algo.l, algo.m, algo.mult, algo.FastTicks, algo.SlowTicks, algo.TriggerConflicts,
		algo.MissingEstimates, algo.Insertions, algo.HandshakeAborts), c
}

// TestDecoratedLayerSeesEveryQuery swaps a decorator without EstimateEdge
// into rt.Est after Start. The trigger fold must fall back to by-peer
// queries for it: the run stays byte-identical to the undecorated one (whose
// fold queries Oracle and Messaging by handle), and the decorator counts as
// many queries as the by-peer fold made before handle queries existed —
// the figures below were taken from that fold on the same runs.
func TestDecoratedLayerSeesEveryQuery(t *testing.T) {
	for _, tc := range []struct {
		name      string
		messaging bool
		queries   int
	}{
		{"oracle", false, 133905},
		{"messaging", true, 133904},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plain, _ := churnRing(t, tc.messaging, false)
			traced, c := churnRing(t, tc.messaging, true)
			if plain != traced {
				t.Errorf("decorated run diverged:\n%s\nundecorated:\n%s", traced, plain)
			}
			if c.queries != tc.queries {
				t.Errorf("decorator saw %d queries, want %d", c.queries, tc.queries)
			}
		})
	}
}

// TestCoreHandleReuse mirrors TestMessagingHandleReuse for the algorithm's
// edge records: after an inserted link is taken down and undeclared, a
// different pair declared next takes over its directed-edge handles and must
// start with fresh records — no record before its own edge-up, a class
// derived from its own parameters, and no insertion times before its own
// handshake.
func TestCoreHandleReuse(t *testing.T) {
	const n = 6
	edges := []topo.EdgeID{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}
	p := testParams()
	p.Insertion, p.DecayRate = InsertDecaying, 1
	h := newHarness(t, n, edges, p, drift.TwoGroup{Rho: tRho, Split: n / 2})
	a, dyn := h.algo, h.rt.Dyn
	h.appearAll(t, []topo.EdgeID{edges[0], edges[2]})
	if err := h.rt.Start(); err != nil {
		t.Fatal(err)
	}
	h.rt.Run(1)
	if err := dyn.Appear(1, 2); err != nil {
		t.Fatal(err)
	}
	for step := 0; a.EdgeLevel(1, 2) < 1 || a.EdgeLevel(2, 1) < 1; step++ {
		if step == 200 {
			t.Fatalf("edge {1,2} not inserted by t=%v", h.rt.Engine.Now())
		}
		h.rt.Run(h.rt.Engine.Now() + 0.5)
	}
	if _, _, ok := a.InsertionInfo(1, 2); !ok {
		t.Fatal("inserted edge {1,2} has no insertion times")
	}
	freed, _, _, _ := dyn.Link(1, 2)

	if err := dyn.Disappear(1, 2); err != nil {
		t.Fatal(err)
	}
	h.rt.Run(h.rt.Engine.Now() + 0.2)
	if err := dyn.Undeclare(1, 2); err != nil {
		t.Fatal(err)
	}
	lp := testLink()
	lp.Eps = 0.3
	if err := dyn.DeclareLink(4, 5, lp); err != nil {
		t.Fatal(err)
	}
	if got, _, _, _ := dyn.Link(4, 5); got&^1 != freed&^1 {
		t.Fatalf("link {4,5} got handle %d; want the freed link's pair %d/%d", got, freed&^1, freed|1)
	}
	for _, e := range [][2]int{{4, 5}, {5, 4}} {
		if _, ok := a.recView(e[0], e[1]); ok {
			t.Errorf("record (%d,%d) exists before its edge-up", e[0], e[1])
		}
		if lvl := a.EdgeLevel(e[0], e[1]); lvl != 0 {
			t.Errorf("EdgeLevel(%d,%d) = %d before its edge-up", e[0], e[1], lvl)
		}
	}

	up, lUp := h.rt.Engine.Now(), [2]float64{a.Logical(4), a.Logical(5)}
	if err := dyn.AppearInstant(4, 5); err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]int{{4, 5}, {5, 4}} {
		rec, ok := a.recView(e[0], e[1])
		switch {
		case !ok:
			t.Fatalf("record (%d,%d) missing after its edge-up", e[0], e[1])
		case !rec.up || rec.upSince != up || rec.preInserted || rec.haveTimes || rec.decaying:
			t.Errorf("record (%d,%d) not fresh after its edge-up: %+v", e[0], e[1], rec)
		case rec.eps != lp.Eps:
			t.Errorf("record (%d,%d) has ε %v, want the new link's %v", e[0], e[1], rec.eps, lp.Eps)
		}
		if lvl := a.EdgeLevel(e[0], e[1]); lvl != 0 {
			t.Errorf("EdgeLevel(%d,%d) = %d before its handshake", e[0], e[1], lvl)
		}
	}
	for {
		_, _, okU := a.InsertionInfo(4, 5)
		_, _, okV := a.InsertionInfo(5, 4)
		if okU && okV {
			break
		}
		if h.rt.Engine.Now() > up+20 {
			t.Fatalf("handshake on {4,5} incomplete by t=%v", h.rt.Engine.Now())
		}
		h.rt.Run(h.rt.Engine.Now() + 0.1)
	}
	for i, e := range [][2]int{{4, 5}, {5, 4}} {
		// Listing 1 agrees a start time ahead of the leader's clock at the
		// handshake, so fresh times lie beyond both clocks at edge-up.
		if t0, _, _ := a.InsertionInfo(e[0], e[1]); t0 <= lUp[i] {
			t.Errorf("InsertionInfo(%d,%d): T₀ %v not after the edge-up clock %v", e[0], e[1], t0, lUp[i])
		}
	}
}
