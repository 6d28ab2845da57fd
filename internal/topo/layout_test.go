package topo

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/sim"
)

// This file keeps the retired map-of-pointers graph as a test-only shadow
// (refDynamic) and pins every observable of the structure-of-arrays Dynamic
// to it under random churn scripts.

// edge holds the dynamic state of one undirected edge in the shadow.
type edge struct {
	id     EdgeID
	params LinkParams
	// up[i] is the visibility of the directed edge from endpoint i (0 = U,
	// 1 = V) to the other endpoint; upSince[i] is when it last became
	// visible.
	up      [2]bool
	upSince [2]sim.Time
	// pending transitions, so a flap cancels outstanding events.
	pending [2]sim.Handle
}

func (e *edge) side(u int) int {
	if u == e.id.U {
		return 0
	}
	return 1
}

// refDynamic is the map-backed shadow of Dynamic: one heap object per edge
// plus per-node adjacency maps, with the same declare/toggle/undeclare
// semantics and the same detection-lag draws (one per side, from its own
// RNG, in side order).
type refDynamic struct {
	n          int
	engine     *sim.Engine
	rng        *sim.RNG
	minTransit float64
	edges      map[EdgeID]*edge
	adj        []map[int]*edge
}

func newRefDynamic(n int, engine *sim.Engine, rng *sim.RNG) *refDynamic {
	r := &refDynamic{
		n: n, engine: engine, rng: rng, minTransit: math.Inf(1),
		edges: make(map[EdgeID]*edge),
		adj:   make([]map[int]*edge, n),
	}
	for i := range r.adj {
		r.adj[i] = make(map[int]*edge)
	}
	return r
}

func (r *refDynamic) MinTransit() float64 { return r.minTransit }

func (r *refDynamic) DeclareLink(a, b int, p LinkParams) error {
	if a == b {
		return fmt.Errorf("self-loop {%d,%d}", a, b)
	}
	if a < 0 || a >= r.n || b < 0 || b >= r.n {
		return fmt.Errorf("endpoint out of range in {%d,%d}", a, b)
	}
	if err := p.Validate(); err != nil {
		return err
	}
	if mt := p.Delay - p.Uncertainty; mt < r.minTransit {
		r.minTransit = mt
	}
	id := MakeEdgeID(a, b)
	if ex, ok := r.edges[id]; ok {
		ex.params = p
		return nil
	}
	e := &edge{id: id, params: p}
	r.edges[id] = e
	r.adj[id.U][id.V] = e
	r.adj[id.V][id.U] = e
	return nil
}

func (r *refDynamic) Undeclare(a, b int) error {
	id := MakeEdgeID(a, b)
	e, ok := r.edges[id]
	if !ok {
		return fmt.Errorf("undeclare of undeclared link {%d,%d}", a, b)
	}
	if e.up[0] || e.up[1] {
		return fmt.Errorf("undeclare of visible link {%d,%d}", a, b)
	}
	r.engine.Cancel(e.pending[0])
	r.engine.Cancel(e.pending[1])
	delete(r.edges, id)
	delete(r.adj[id.U], id.V)
	delete(r.adj[id.V], id.U)
	return nil
}

func (r *refDynamic) Appear(a, b int) error        { return r.toggle(a, b, true, false) }
func (r *refDynamic) AppearInstant(a, b int) error { return r.toggle(a, b, true, true) }
func (r *refDynamic) Disappear(a, b int) error     { return r.toggle(a, b, false, false) }

func (r *refDynamic) toggle(a, b int, up, instant bool) error {
	e, ok := r.edges[MakeEdgeID(a, b)]
	if !ok {
		return fmt.Errorf("toggle on undeclared link {%d,%d}", a, b)
	}
	for side := 0; side < 2; side++ {
		lag := 0.0
		if !instant && e.params.Tau > 0 {
			lag = r.rng.Uniform(0, e.params.Tau)
		}
		r.transition(e, side, up, lag)
	}
	return nil
}

func (r *refDynamic) transition(e *edge, side int, up bool, lag float64) {
	r.engine.Cancel(e.pending[side])
	e.pending[side] = 0
	apply := func(t sim.Time) {
		e.pending[side] = 0
		if e.up[side] == up {
			return
		}
		e.up[side] = up
		if up {
			e.upSince[side] = t
		}
	}
	if lag <= 0 {
		apply(r.engine.Now())
		return
	}
	e.pending[side] = r.engine.After(lag, apply)
}

func (r *refDynamic) Params(a, b int) (LinkParams, bool) {
	e, ok := r.adj[a][b]
	if !ok {
		return LinkParams{}, false
	}
	return e.params, true
}

func (r *refDynamic) Sees(u, v int) bool {
	e, ok := r.adj[u][v]
	return ok && e.up[e.side(u)]
}

func (r *refDynamic) BothUp(u, v int) bool {
	e, ok := r.adj[u][v]
	return ok && e.up[0] && e.up[1]
}

func (r *refDynamic) UpSince(u, v int) (sim.Time, bool) {
	e, ok := r.adj[u][v]
	if !ok || !e.up[e.side(u)] {
		return 0, false
	}
	return e.upSince[e.side(u)], true
}

func (r *refDynamic) AgeBoth(u, v int, now sim.Time) (float64, bool) {
	e, ok := r.adj[u][v]
	if !ok || !e.up[0] || !e.up[1] {
		return 0, false
	}
	return now - math.Max(e.upSince[0], e.upSince[1]), true
}

func (r *refDynamic) Neighbors(u int, dst []int) []int {
	start := len(dst)
	for v, e := range r.adj[u] {
		if e.up[e.side(u)] {
			dst = append(dst, v)
		}
	}
	sort.Ints(dst[start:])
	return dst
}

// edgesWhere appends every declared edge satisfying keep, sorted.
func (r *refDynamic) edgesWhere(dst []EdgeID, keep func(*edge) bool) []EdgeID {
	start := len(dst)
	for id, e := range r.edges {
		if keep(e) {
			dst = append(dst, id)
		}
	}
	sortEdges(dst[start:])
	return dst
}

func (r *refDynamic) DeclaredEdges(dst []EdgeID) []EdgeID {
	return r.edgesWhere(dst, func(*edge) bool { return true })
}

func (r *refDynamic) EdgesBothUp(dst []EdgeID) []EdgeID {
	return r.edgesWhere(dst, func(e *edge) bool { return e.up[0] && e.up[1] })
}

func (r *refDynamic) StableEdges(now sim.Time, minAge float64, dst []EdgeID) []EdgeID {
	return r.edgesWhere(dst, func(e *edge) bool {
		age, ok := r.AgeBoth(e.id.U, e.id.V, now)
		return ok && age >= minAge
	})
}

// layoutPair drives the structure-of-arrays graph and the map-backed shadow
// in lockstep: same node count, same scripted operations, and — because
// detection lags are drawn from per-graph RNGs seeded identically and the
// scripts are identical — the same lag draws in the same order.
type layoutPair struct {
	soaEng, refEng *sim.Engine
	soa            *Dynamic
	ref            *refDynamic
}

func newLayoutPair(n int, seed int64) *layoutPair {
	p := &layoutPair{soaEng: sim.NewEngine(), refEng: sim.NewEngine()}
	p.soa = NewDynamic(n, p.soaEng, sim.NewRNG(seed))
	p.ref = newRefDynamic(n, p.refEng, sim.NewRNG(seed))
	return p
}

// check asserts full observable equality of the two graphs at the current
// time: declared edges, both-up edges, and per-pair Sees/BothUp/UpSince/
// AgeBoth/Params/Neighbors for every declared pair and endpoint.
func (p *layoutPair) check(t *testing.T, ctx string) {
	t.Helper()
	now := p.soaEng.Now()
	if rn := p.refEng.Now(); rn != now {
		t.Fatalf("%s: engines diverged: soa t=%v ref t=%v", ctx, now, rn)
	}
	sd := p.soa.DeclaredEdges(nil)
	rd := p.ref.DeclaredEdges(nil)
	if len(sd) != len(rd) {
		t.Fatalf("%s: declared %d edges, reference %d", ctx, len(sd), len(rd))
	}
	for i := range sd {
		if sd[i] != rd[i] {
			t.Fatalf("%s: declared edge %d: %v vs reference %v", ctx, i, sd[i], rd[i])
		}
	}
	su := p.soa.EdgesBothUp(nil)
	ru := p.ref.EdgesBothUp(nil)
	if len(su) != len(ru) {
		t.Fatalf("%s: both-up %d edges, reference %d", ctx, len(su), len(ru))
	}
	for i := range su {
		if su[i] != ru[i] {
			t.Fatalf("%s: both-up edge %d: %v vs reference %v", ctx, i, su[i], ru[i])
		}
	}
	ss := p.soa.StableEdges(now, 0.05, nil)
	rs := p.ref.StableEdges(now, 0.05, nil)
	if len(ss) != len(rs) {
		t.Fatalf("%s: stable %d edges, reference %d", ctx, len(ss), len(rs))
	}
	if p.soa.MinTransit() != p.ref.MinTransit() {
		t.Fatalf("%s: MinTransit %v vs reference %v", ctx, p.soa.MinTransit(), p.ref.MinTransit())
	}
	for _, id := range sd {
		for _, pair := range [][2]int{{id.U, id.V}, {id.V, id.U}} {
			u, v := pair[0], pair[1]
			if got, want := p.soa.Sees(u, v), p.ref.Sees(u, v); got != want {
				t.Fatalf("%s: Sees(%d,%d) = %v, reference %v", ctx, u, v, got, want)
			}
			if got, want := p.soa.BothUp(u, v), p.ref.BothUp(u, v); got != want {
				t.Fatalf("%s: BothUp(%d,%d) = %v, reference %v", ctx, u, v, got, want)
			}
			gt, gok := p.soa.UpSince(u, v)
			wt, wok := p.ref.UpSince(u, v)
			if gt != wt || gok != wok {
				t.Fatalf("%s: UpSince(%d,%d) = (%v,%v), reference (%v,%v)", ctx, u, v, gt, gok, wt, wok)
			}
			ga, gaok := p.soa.AgeBoth(u, v, now)
			wa, waok := p.ref.AgeBoth(u, v, now)
			if ga != wa || gaok != waok {
				t.Fatalf("%s: AgeBoth(%d,%d) = (%v,%v), reference (%v,%v)", ctx, u, v, ga, gaok, wa, waok)
			}
			gp, gpok := p.soa.Params(u, v)
			wp, wpok := p.ref.Params(u, v)
			if gp != wp || gpok != wpok {
				t.Fatalf("%s: Params(%d,%d) = (%v,%v), reference (%v,%v)", ctx, u, v, gp, gpok, wp, wpok)
			}
		}
	}
	var sn, rn []int
	for u := 0; u < p.soa.N(); u++ {
		sn = p.soa.Neighbors(u, sn[:0])
		rn = p.ref.Neighbors(u, rn[:0])
		if len(sn) != len(rn) {
			t.Fatalf("%s: Neighbors(%d) = %v, reference %v", ctx, u, sn, rn)
		}
		for i := range sn {
			if sn[i] != rn[i] {
				t.Fatalf("%s: Neighbors(%d) = %v, reference %v", ctx, u, sn, rn)
			}
		}
	}
}

// runScript executes one churn script step-by-step, checking equality after
// every operation and after every engine advance. Byte values map to
// operations over a small node universe, so the fuzz target can share it.
func runLayoutScript(t *testing.T, script []byte) {
	t.Helper()
	const n = 9
	p := newLayoutPair(n, 42)
	params := []LinkParams{
		DefaultLinkParams(),
		{Eps: 0.1, Tau: 0, Delay: 0.2, Uncertainty: 0.1},   // τ=0: inline transitions
		{Eps: 0.3, Tau: 0.25, Delay: 0.15, Uncertainty: 0}, // long τ: overlapping flaps
	}
	for i := 0; i+2 < len(script); i += 3 {
		a := int(script[i]) % n
		b := int(script[i+1]) % n
		if a == b {
			continue
		}
		op := script[i+2] % 6
		ctx := ""
		switch op {
		case 0, 1:
			lp := params[int(script[i+2]/6)%len(params)]
			e1 := p.soa.DeclareLink(a, b, lp)
			e2 := p.ref.DeclareLink(a, b, lp)
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("op %d: DeclareLink(%d,%d) err %v vs reference %v", i, a, b, e1, e2)
			}
			ctx = "declare"
		case 2:
			e1 := p.soa.Appear(a, b)
			e2 := p.ref.Appear(a, b)
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("op %d: Appear(%d,%d) err %v vs reference %v", i, a, b, e1, e2)
			}
			ctx = "appear"
		case 3:
			e1 := p.soa.Disappear(a, b)
			e2 := p.ref.Disappear(a, b)
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("op %d: Disappear(%d,%d) err %v vs reference %v", i, a, b, e1, e2)
			}
			ctx = "disappear"
		case 4:
			e1 := p.soa.Undeclare(a, b)
			e2 := p.ref.Undeclare(a, b)
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("op %d: Undeclare(%d,%d) err %v vs reference %v", i, a, b, e1, e2)
			}
			ctx = "undeclare"
		case 5:
			dt := 0.01 + float64(script[i+2]>>3)/256.0
			p.soaEng.RunUntil(p.soaEng.Now() + dt)
			p.refEng.RunUntil(p.refEng.Now() + dt)
			ctx = "advance"
		}
		p.check(t, ctx)
	}
	// Drain all pending detections and compare the settled state.
	p.soaEng.RunUntil(p.soaEng.Now() + 1)
	p.refEng.RunUntil(p.refEng.Now() + 1)
	p.check(t, "drain")
}

// TestLayoutDifferentialChurn runs random declare/appear/disappear/undeclare
// scripts (with interleaved time advances, so lagged detections land) on the
// slab layout and the map shadow, asserting observable equality after
// every step. Enough operations that slot free-list recycling and CSR row
// relocation/compaction all trigger.
func TestLayoutDifferentialChurn(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, 3*400)
		rng.Read(script)
		runLayoutScript(t, script)
	}
}

// FuzzTopoChurn lets the fuzzer hunt for operation interleavings where the
// slab layout and the map shadow disagree.
func FuzzTopoChurn(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 1, 2, 0, 1, 5, 0, 1, 3, 0, 1, 4})
	f.Add([]byte{3, 4, 6, 3, 4, 2, 3, 4, 2, 3, 4, 3, 3, 4, 5})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 3*600 {
			script = script[:3*600]
		}
		runLayoutScript(t, script)
	})
}

// TestUndeclare pins the free-list lifecycle: undeclare requires the edge to
// be fully down, frees the slot for reuse, and drops it from every view.
// Every step runs on the slab graph and the map shadow, and the two must
// stay observably equal throughout.
func TestUndeclare(t *testing.T) {
	p := newLayoutPair(4, 1)
	both := func(op string, wantErr bool, soa, ref func() error) {
		t.Helper()
		e1, e2 := soa(), ref()
		if (e1 != nil) != wantErr || (e2 != nil) != wantErr {
			t.Fatalf("%s: err %v, shadow err %v, want error=%v", op, e1, e2, wantErr)
		}
		p.check(t, op)
	}
	advance := func() {
		p.soaEng.RunUntil(p.soaEng.Now() + 1)
		p.refEng.RunUntil(p.refEng.Now() + 1)
	}
	lp := DefaultLinkParams()
	both("declare", false, func() error { return p.soa.DeclareLink(0, 1, lp) }, func() error { return p.ref.DeclareLink(0, 1, lp) })
	freed, _, _, _ := p.soa.Link(0, 1)
	both("appear", false, func() error { return p.soa.AppearInstant(0, 1) }, func() error { return p.ref.AppearInstant(0, 1) })
	both("undeclare visible", true, func() error { return p.soa.Undeclare(0, 1) }, func() error { return p.ref.Undeclare(0, 1) })
	both("disappear", false, func() error { return p.soa.Disappear(0, 1) }, func() error { return p.ref.Disappear(0, 1) })
	advance()
	both("undeclare", false, func() error { return p.soa.Undeclare(0, 1) }, func() error { return p.ref.Undeclare(0, 1) })
	both("double undeclare", true, func() error { return p.soa.Undeclare(0, 1) }, func() error { return p.ref.Undeclare(0, 1) })
	if _, ok := p.soa.Params(0, 1); ok {
		t.Fatal("Params after Undeclare succeeded")
	}
	if p.soa.Sees(0, 1) || p.soa.Sees(1, 0) {
		t.Fatal("Sees after Undeclare")
	}
	if got := p.soa.DeclaredEdges(nil); len(got) != 0 {
		t.Fatalf("DeclaredEdges after Undeclare = %v", got)
	}
	// The freed slot is recycled by the next declare.
	both("redeclare", false, func() error { return p.soa.DeclareLink(2, 3, lp) }, func() error { return p.ref.DeclareLink(2, 3, lp) })
	if h, _, _, _ := p.soa.Link(2, 3); h&^1 != freed&^1 {
		t.Fatalf("link {2,3} got handle %d; want the freed slot's pair %d/%d", h, freed&^1, freed|1)
	}
	both("reappear", false, func() error { return p.soa.AppearInstant(2, 3) }, func() error { return p.ref.AppearInstant(2, 3) })
	if !p.soa.BothUp(2, 3) {
		t.Fatal("recycled edge not up")
	}
	if p.soa.Sees(0, 1) {
		t.Fatal("recycled slot leaked old pair's visibility")
	}
}

// undeclareGraph is the slice of the graph API the undeclare lifecycle
// tests drive on both Dynamic and its map shadow.
type undeclareGraph interface {
	DeclareLink(a, b int, p LinkParams) error
	Appear(a, b int) error
	Undeclare(a, b int) error
	Sees(u, v int) bool
}

// TestUndeclareCancelsPendingDetection: an in-flight appearance detection
// must not resurrect an undeclared edge — on Dynamic and on the shadow.
func TestUndeclareCancelsPendingDetection(t *testing.T) {
	build := map[string]func(*sim.Engine) undeclareGraph{
		"soa": func(e *sim.Engine) undeclareGraph { return NewDynamic(2, e, sim.NewRNG(1)) },
		"map": func(e *sim.Engine) undeclareGraph { return newRefDynamic(2, e, sim.NewRNG(1)) },
	}
	for _, name := range []string{"soa", "map"} {
		engine := sim.NewEngine()
		d := build[name](engine)
		if err := d.DeclareLink(0, 1, LinkParams{Eps: 0.2, Tau: 0.5, Delay: 0.1, Uncertainty: 0}); err != nil {
			t.Fatal(err)
		}
		if err := d.Appear(0, 1); err != nil {
			t.Fatal(err)
		}
		// Undeclare while both detections are still pending.
		if err := d.Undeclare(0, 1); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		engine.RunUntil(2)
		if d.Sees(0, 1) || d.Sees(1, 0) {
			t.Fatalf("%s: cancelled detection still fired", name)
		}
	}
}
