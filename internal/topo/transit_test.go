package topo

// Fuzz-style differential for the per-shard incoming transit bound that
// limits the sharded event drain's windows: randomized scripts of declares,
// re-declares (parameter updates while down) and undeclares are shadowed by
// two brute-force models. The bound must stay sound — at most the minimum
// Delay−Uncertainty over the links declared right now (smaller-or-equal
// lookahead = narrower windows = safe) — and it must be exact against the
// minimum over every link ever declared, so a ratchet that sits lower than
// the declares justify (narrower windows than needed) fails too.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// bruteTransit keeps the currently declared edges and the ever-declared
// per-shard minima, and recomputes the current per-shard incoming minima
// from scratch.
type bruteTransit struct {
	k     int
	edges map[EdgeID]LinkParams
	ever  []float64
	in    []float64
}

func newBruteTransit(k int) *bruteTransit {
	b := &bruteTransit{k: k, edges: make(map[EdgeID]LinkParams), ever: make([]float64, k)}
	for i := range b.ever {
		b.ever[i] = math.Inf(1)
	}
	return b
}

// declare records a DeclareLink of {u, v} with parameters p.
func (b *bruteTransit) declare(u, v int, p LinkParams) {
	b.edges[MakeEdgeID(u, v)] = p
	mt := p.Delay - p.Uncertainty
	for _, s := range [2]int{u % b.k, v % b.k} {
		b.ever[s] = math.Min(b.ever[s], mt)
	}
}

func (b *bruteTransit) recompute() {
	b.in = make([]float64, b.k)
	for i := range b.in {
		b.in[i] = math.Inf(1)
	}
	for id, p := range b.edges {
		mt := p.Delay - p.Uncertainty
		for _, s := range [2]int{id.U % b.k, id.V % b.k} {
			b.in[s] = math.Min(b.in[s], mt)
		}
	}
}

// check verifies, for every shard, that InTransit is a sound lower bound
// over the links declared now (undeclared or re-declared fast links may
// keep it lower — conservative, never higher) and equals the minimum over
// every link ever declared.
func check(t *testing.T, step int, d *Dynamic, b *bruteTransit) {
	t.Helper()
	b.recompute()
	for s := 0; s < b.k; s++ {
		if d.InTransit(s) > b.in[s] {
			t.Fatalf("step %d: InTransit(%d) %v exceeds brute-force %v", step, s, d.InTransit(s), b.in[s])
		}
		if d.InTransit(s) != b.ever[s] {
			t.Fatalf("step %d: InTransit(%d) %v, ever-declared minimum %v", step, s, d.InTransit(s), b.ever[s])
		}
	}
}

// TestInTransitFuzz runs randomized declare/undeclare scripts at several
// shard counts against the brute-force shadows.
func TestInTransitFuzz(t *testing.T) {
	for _, k := range []int{1, 2, 3, 5, 8} {
		for seed := int64(0); seed < 6; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(k)))
			n := 6 + rng.Intn(20)
			engine := sim.NewEngine()
			engine.SetEventParallelism(k)
			d := NewDynamic(n, engine, sim.NewRNG(seed))
			b := newBruteTransit(engine.EventShards())

			randParams := func() LinkParams {
				delay := 0.02 + rng.Float64()
				return LinkParams{
					Eps:         0.1 + rng.Float64(),
					Tau:         rng.Float64() * 0.2,
					Delay:       delay,
					Uncertainty: rng.Float64() * delay,
				}
			}
			for step := 0; step < 400; step++ {
				if rng.Intn(10) < 6 { // declare or re-declare (params update while down)
					u := rng.Intn(n)
					v := rng.Intn(n)
					if u == v {
						continue
					}
					p := randParams()
					if err := d.DeclareLink(u, v, p); err != nil {
						t.Fatalf("step %d: DeclareLink(%d,%d): %v", step, u, v, err)
					}
					b.declare(u, v, p)
					check(t, step, d, b)
					continue
				}
				// Undeclare a random currently declared edge.
				var pick EdgeID
				found := false
				for id := range b.edges {
					pick = id
					found = true
					break
				}
				if !found {
					continue
				}
				if err := d.Undeclare(pick.U, pick.V); err != nil {
					t.Fatalf("step %d: Undeclare(%d,%d): %v", step, pick.U, pick.V, err)
				}
				delete(b.edges, pick)
				check(t, step, d, b)
			}
		}
	}
}

// TestInTransitRefinesGlobal pins what the per-shard window bound buys over
// one global bound: every shard's incoming minimum is at least the minimum
// over all declared links, and at least one shard attains it.
func TestInTransitRefinesGlobal(t *testing.T) {
	engine := sim.NewEngine()
	engine.SetEventParallelism(4)
	d := NewDynamic(32, engine, sim.NewRNG(1))
	rng := rand.New(rand.NewSource(9))
	global := math.Inf(1)
	for i := 0; i < 40; i++ {
		u, v := rng.Intn(32), rng.Intn(32)
		if u == v {
			continue
		}
		delay := 0.05 + rng.Float64()*0.5
		p := LinkParams{Eps: 0.2, Tau: 0.1, Delay: delay, Uncertainty: rng.Float64() * delay * 0.5}
		if err := d.DeclareLink(u, v, p); err != nil {
			t.Fatal(err)
		}
		global = math.Min(global, p.Delay-p.Uncertainty)
	}
	attained := false
	for s := 0; s < engine.EventShards(); s++ {
		if d.InTransit(s) < global {
			t.Fatalf("InTransit(%d)=%v below the global minimum %v", s, d.InTransit(s), global)
		}
		if d.InTransit(s) == global {
			attained = true
		}
	}
	if !attained {
		t.Fatalf("no shard attains the global minimum %v", global)
	}
}
