package estimate

import (
	"sync/atomic"
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/transport"
)

// This file keeps the retired map-backed sample stores of Messaging and RBS
// as test-only shadows and pins the flat slabs to them.

// refMessaging is Messaging with its handle-keyed slab replaced by a
// peer-keyed map per node. The embedded Messaging supplies the topology,
// configuration, hardware clocks, Eps and the Misses counter; its own slab
// stays empty.
type refMessaging struct {
	*Messaging
	samples []map[int]*sample
}

func newRefMessaging(n int, dyn *topo.Dynamic, hw func(int) float64, cfg MessagingConfig) *refMessaging {
	r := &refMessaging{Messaging: &Messaging{dyn: dyn, cfg: cfg, hw: hw}, samples: make([]map[int]*sample, n)}
	for i := range r.samples {
		r.samples[i] = make(map[int]*sample)
	}
	return r
}

func (r *refMessaging) RecordBeacon(to, from int, b transport.Beacon, d transport.Delivery) {
	s := sample{lSent: b.L, hwAtRecv: r.hw(to), minTransit: d.MinTransit, valid: true}
	if x, ok := r.samples[to][from]; ok {
		*x = s
	} else {
		r.samples[to][from] = &s
	}
}

func (r *refMessaging) Invalidate(u, v int) {
	if x := r.samples[u][v]; x != nil {
		x.valid = false
	}
}

func (r *refMessaging) Estimate(u, v int) (float64, bool) {
	p, ok := r.dyn.Params(u, v)
	if !ok || !r.dyn.Sees(u, v) {
		return 0, false
	}
	x := r.samples[u][v]
	if x == nil || !x.valid {
		atomic.AddUint64(&r.Misses, 1)
		return 0, false
	}
	ageHW := r.hw(u) - x.hwAtRecv
	if ageHW < 0 || ageHW > maxSampleAgeHW(r.cfg, p) {
		atomic.AddUint64(&r.Misses, 1)
		return 0, false
	}
	est := advanceSample(r.cfg, x.lSent, x.minTransit, ageHW)
	if r.cfg.Centered {
		est += oneSidedBound(r.cfg, p) / 2
	}
	return est, true
}

// rbsSample is u's view of v's clock, anchored at a common broadcast event:
// v's logical clock at v's reception, and u's hardware clock at u's own
// reception of the same event.
type rbsSample struct {
	lAtEvent     float64
	hwAtOwnEvent float64
	valid        bool
}

// refRBS is RBS with its CSR slabs replaced by per-node maps: coListener[u][v]
// marks pairs sharing at least one source; samples[u][v] is the latest
// anchored sample u holds about v. The embedded RBS supplies the
// configuration, clocks, engine, RNG, Eps and the Broadcasts counter; its
// own rows stay empty.
type refRBS struct {
	*RBS
	coListener []map[int]bool
	samples    []map[int]*rbsSample
}

func newRefRBS(n int, engine *sim.Engine, rng *sim.RNG, hw, logical func(int) float64, groups [][]int, cfg RBSConfig) *refRBS {
	r := &refRBS{
		RBS:        &RBS{engine: engine, cfg: cfg, rng: rng, hw: hw, logical: logical, groups: groups},
		coListener: make([]map[int]bool, n),
		samples:    make([]map[int]*rbsSample, n),
	}
	for i := 0; i < n; i++ {
		r.coListener[i] = make(map[int]bool)
		r.samples[i] = make(map[int]*rbsSample)
	}
	for _, g := range groups {
		for _, u := range g {
			for _, v := range g {
				if u != v {
					r.coListener[u][v] = true
				}
			}
		}
	}
	return r
}

func (r *refRBS) Start() {
	for s := range r.groups {
		s := s
		offset := r.cfg.Interval * float64(s+1) / float64(len(r.groups)+1)
		r.engine.NewTicker(offset, r.cfg.Interval, func(sim.Time, float64) { r.broadcast(s) })
	}
}

// broadcast mirrors RBS.broadcast: the same jitter draws in the same order,
// the exchange writing map samples instead of slab slots.
func (r *refRBS) broadcast(s int) {
	r.Broadcasts++
	type reception struct {
		node     int
		lAtRecv  float64
		hwAtRecv float64
	}
	group := r.groups[s]
	receptions := make([]*reception, len(group))
	for i, u := range group {
		i, u := i, u
		jit := 0.0
		if r.cfg.Jitter > 0 && r.rng != nil {
			jit = r.rng.Uniform(0, r.cfg.Jitter)
		}
		r.engine.After(jit, func(sim.Time) {
			receptions[i] = &reception{node: u, lAtRecv: r.logical(u), hwAtRecv: r.hw(u)}
		})
	}
	r.engine.After(r.cfg.Jitter+r.cfg.ExchangeDelay, func(sim.Time) {
		for _, from := range receptions {
			for _, to := range receptions {
				if from == nil || to == nil || to.node == from.node {
					continue
				}
				sm, ok := r.samples[to.node][from.node]
				if !ok {
					sm = &rbsSample{}
					r.samples[to.node][from.node] = sm
				}
				*sm = rbsSample{lAtEvent: from.lAtRecv, hwAtOwnEvent: to.hwAtRecv, valid: true}
			}
		}
	})
}

func (r *refRBS) Estimate(u, v int) (float64, bool) {
	if !r.coListener[u][v] {
		return 0, false
	}
	sm, ok := r.samples[u][v]
	if !ok || !sm.valid {
		return 0, false
	}
	rho := r.cfg.Rho
	ageHW := r.hw(u) - sm.hwAtOwnEvent
	if ageHW < 0 || ageHW > r.maxSampleAgeHW() {
		return 0, false
	}
	return sm.lAtEvent + (1-rho)/(1+rho)*ageHW - (1-rho)*(r.cfg.Jitter+r.cfg.TickSlop), true
}

func (r *refRBS) Invalidate(u, v int) {
	if sm, ok := r.samples[u][v]; ok {
		sm.valid = false
	}
}

func (r *refRBS) CoListeners(u, v int) bool { return r.coListener[u][v] }

// TestMessagingLayoutDifferential drives the map shadow and the flat
// Messaging store through the same randomized beacon/invalidate/churn
// script over one shared topology, and demands bit-identical Estimate, Eps
// and Misses observables after every operation. This pins the flat sample
// slab to the map-backed store the same way the topo and core layers are
// pinned.
func TestMessagingLayoutDifferential(t *testing.T) {
	const n = 12
	for seed := int64(0); seed < 8; seed++ {
		eng := sim.NewEngine()
		dyn := topo.NewDynamic(n, eng, sim.NewRNG(seed))
		hw := func(u int) float64 { return float64(eng.Now()) * (1 + 1e-4*float64(u)) }
		cfg := MessagingConfig{Rho: 0.002, Mu: 0.1, BeaconInterval: 0.25, TickSlop: 0.04}
		ref := newRefMessaging(n, dyn, hw, cfg)
		soa := NewMessaging(n, dyn, hw, cfg)

		rng := sim.NewRNG(seed ^ 0x11e57)
		check := func(step int) {
			t.Helper()
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					if u == v {
						continue
					}
					re, rok := ref.Estimate(u, v)
					se, sok := soa.Estimate(u, v)
					if re != se || rok != sok {
						t.Fatalf("seed %d step %d: Estimate(%d,%d) ref (%v,%v) soa (%v,%v)",
							seed, step, u, v, re, rok, se, sok)
					}
					if rEps, sEps := ref.Eps(u, v), soa.Eps(u, v); rEps != sEps {
						t.Fatalf("seed %d step %d: Eps(%d,%d) ref %v soa %v",
							seed, step, u, v, rEps, sEps)
					}
				}
			}
			if ref.Misses != soa.Misses {
				t.Fatalf("seed %d step %d: Misses ref %d soa %d", seed, step, ref.Misses, soa.Misses)
			}
		}

		pair := func() (int, int) {
			u := rng.Intn(n)
			v := rng.Intn(n - 1)
			if v >= u {
				v++
			}
			return u, v
		}
		for step := 0; step < 300; step++ {
			u, v := pair()
			switch rng.Intn(7) {
			case 0:
				_ = dyn.DeclareLink(u, v, linkParams())
			case 1:
				_ = dyn.AppearInstant(u, v)
			case 2:
				_ = dyn.Disappear(u, v)
			case 3:
				// Only declared links: the runner never delivers a beacon
				// elsewhere, and the stores differ on purpose for orphan
				// records (the shadow keeps an unobservable map entry, the
				// flat store drops it).
				if _, declared := dyn.Params(u, v); !declared {
					continue
				}
				b := transport.Beacon{L: rng.Uniform(0, 50)}
				d := transport.Delivery{MinTransit: rng.Uniform(0, 0.1)}
				ref.RecordBeacon(u, v, b, d)
				soa.RecordBeacon(u, v, b, d)
			case 4:
				ref.Invalidate(u, v)
				soa.Invalidate(u, v)
			case 5:
				eng.RunUntil(eng.Now() + sim.Time(rng.Uniform(0, 0.2)))
			case 6:
				// Undeclare frees the link's topology slot; the next new
				// declare reuses it (csr.FreeList is LIFO), handing the
				// flat store a handle whose records a different pair
				// wrote. Both sides are down, so the runner's EdgeDown
				// listener has already invalidated both directions.
				if dyn.Sees(u, v) || dyn.Sees(v, u) {
					continue
				}
				ref.Invalidate(u, v)
				ref.Invalidate(v, u)
				soa.Invalidate(u, v)
				soa.Invalidate(v, u)
				_ = dyn.Undeclare(u, v)
			}
			check(step)
		}
	}
}

// TestMessagingHandleReuse pins the flat store across topology slot reuse:
// after a link with live samples is undeclared, a different pair declared
// next takes over its directed-edge handles, and must report no estimate
// until a beacon crosses it — exactly as the map shadow, which never saw the
// new pair, does.
func TestMessagingHandleReuse(t *testing.T) {
	const n = 6
	eng := sim.NewEngine()
	dyn := topo.NewDynamic(n, eng, sim.NewRNG(1))
	hw := func(u int) float64 { return float64(eng.Now()) }
	cfg := MessagingConfig{Rho: 0.002, Mu: 0.1, BeaconInterval: 0.25, TickSlop: 0.04}
	ref := newRefMessaging(n, dyn, hw, cfg)
	soa := NewMessaging(n, dyn, hw, cfg)
	same := func(u, v int, wantOK bool) {
		t.Helper()
		re, rok := ref.Estimate(u, v)
		se, sok := soa.Estimate(u, v)
		if re != se || rok != sok || sok != wantOK {
			t.Fatalf("Estimate(%d,%d): ref (%v,%v) soa (%v,%v), want ok=%v", u, v, re, rok, se, sok, wantOK)
		}
	}
	beacon := func(to, from int, l float64) {
		b, d := transport.Beacon{L: l}, transport.Delivery{MinTransit: 0.05}
		ref.RecordBeacon(to, from, b, d)
		soa.RecordBeacon(to, from, b, d)
	}

	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}} {
		if err := dyn.DeclareLink(e[0], e[1], linkParams()); err != nil {
			t.Fatal(err)
		}
		if err := dyn.AppearInstant(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	beacon(1, 2, 7)
	beacon(2, 1, 9)
	same(1, 2, true)
	freed, _, _, _ := dyn.Link(1, 2)

	// Take {1,2} down on both sides and undeclare it, then declare a
	// different pair. No Invalidate runs, so the freed handles still hold
	// valid samples young enough to certify: only the declare-time reset
	// keeps them from leaking into the new link.
	if err := dyn.Disappear(1, 2); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(eng.Now() + 0.2)
	if err := dyn.Undeclare(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := dyn.DeclareLink(4, 5, linkParams()); err != nil {
		t.Fatal(err)
	}
	if h, _, _, _ := dyn.Link(4, 5); h&^1 != freed&^1 {
		t.Fatalf("link {4,5} got handle %d; want the freed link's pair %d/%d", h, freed&^1, freed|1)
	}
	if err := dyn.AppearInstant(4, 5); err != nil {
		t.Fatal(err)
	}
	same(4, 5, false)
	same(5, 4, false)
	beacon(4, 5, 3)
	same(4, 5, true)
	same(5, 4, false)
	if ref.Misses != soa.Misses {
		t.Fatalf("Misses: ref %d soa %d", ref.Misses, soa.Misses)
	}
}

// TestRBSLayoutDifferential runs the map shadow and the flat RBS side by
// side on one engine, with overlapping listener groups (so
// the CSR dedup path is exercised), identical per-instance RNG seeds, and a
// randomized invalidation stream. Estimates, Eps, and CoListeners must agree
// exactly over the whole run.
func TestRBSLayoutDifferential(t *testing.T) {
	const n = 10
	groups := [][]int{{0, 1, 2, 3, 4}, {3, 4, 5, 6, 7, 8}, {7, 8, 9, 0}}
	for seed := int64(0); seed < 4; seed++ {
		eng := sim.NewEngine()
		hw := func(u int) float64 { return float64(eng.Now()) * (1 + 2e-4*float64(u)) }
		logical := func(u int) float64 { return float64(eng.Now()) * (1 + 1e-4*float64(u)) }
		cfg := RBSConfig{Rho: 0.002, Mu: 0.1, Jitter: 0.01, Interval: 0.5, ExchangeDelay: 0.05, TickSlop: 0.02}
		// Separate-but-identically-seeded RNGs: each instance draws the same
		// jitter sequence for its own broadcasts.
		ref := newRefRBS(n, eng, sim.NewRNG(seed), hw, logical, groups, cfg)
		soa, err := NewRBS(n, eng, nil, sim.NewRNG(seed), hw, logical, groups, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref.Start()
		soa.Start()

		rng := sim.NewRNG(seed ^ 0x7b5)
		for step := 0; step < 40; step++ {
			eng.RunUntil(eng.Now() + sim.Time(rng.Uniform(0.05, 0.4)))
			if rng.Bool(0.3) {
				u, v := rng.Intn(n), rng.Intn(n)
				ref.Invalidate(u, v)
				soa.Invalidate(u, v)
			}
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					if u == v {
						continue
					}
					if rc, sc := ref.CoListeners(u, v), soa.CoListeners(u, v); rc != sc {
						t.Fatalf("seed %d step %d: CoListeners(%d,%d) ref %v soa %v", seed, step, u, v, rc, sc)
					}
					re, rok := ref.Estimate(u, v)
					se, sok := soa.Estimate(u, v)
					if re != se || rok != sok {
						t.Fatalf("seed %d step %d: Estimate(%d,%d) ref (%v,%v) soa (%v,%v)",
							seed, step, u, v, re, rok, se, sok)
					}
					if rEps, sEps := ref.Eps(u, v), soa.Eps(u, v); rEps != sEps {
						t.Fatalf("seed %d step %d: Eps(%d,%d) ref %v soa %v", seed, step, u, v, rEps, sEps)
					}
				}
			}
		}
		if ref.Broadcasts != soa.Broadcasts || ref.Broadcasts == 0 {
			t.Fatalf("seed %d: Broadcasts ref %d soa %d", seed, ref.Broadcasts, soa.Broadcasts)
		}
	}
}
