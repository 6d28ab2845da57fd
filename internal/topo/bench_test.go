package topo

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkNeighbors measures neighbor enumeration with a reused scratch
// buffer — the pattern every per-tick caller (trigger evaluation, beacon
// broadcast) must follow. With -benchmem this reports 0 allocs/op; passing
// nil instead of the scratch would allocate on every call.
func BenchmarkNeighbors(b *testing.B) {
	engine := sim.NewEngine()
	d := NewDynamic(32, engine, sim.NewRNG(1))
	for _, e := range Torus(8, 4) {
		if err := d.DeclareLink(e.U, e.V, DefaultLinkParams()); err != nil {
			b.Fatalf("declare: %v", err)
		}
		if err := d.AppearInstant(e.U, e.V); err != nil {
			b.Fatalf("appear: %v", err)
		}
	}
	var scratch []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = d.Neighbors(i%32, scratch[:0])
	}
}

// BenchmarkTopoChurn pins the cost of one edge transition cycle
// (Disappear, drain detections, Appear, drain detections) on a 10⁴-node
// ring under the slab layout. The first flap of an edge allocates its lazy
// churnState (two apply closures); the warm-up loop pays that for every
// chord, so the measured steady state must be 0 allocs/op — a regression
// here means a per-transition allocation crept into the free-list/CSR path.
func BenchmarkTopoChurn(b *testing.B) {
	const n = 10000
	engine := sim.NewEngine()
	d := NewDynamic(n, engine, sim.NewRNG(1))
	for _, e := range Ring(n) {
		if err := d.DeclareLink(e.U, e.V, DefaultLinkParams()); err != nil {
			b.Fatalf("declare: %v", err)
		}
		if err := d.AppearInstant(e.U, e.V); err != nil {
			b.Fatalf("appear: %v", err)
		}
	}
	// 64 chords churn; the ring stays static, as in BenchmarkRuntime10k.
	chords := make([]EdgeID, 0, 64)
	for i := 0; i < 64; i++ {
		u := i * (n / 2) / 64
		id := MakeEdgeID(u, u+n/2)
		chords = append(chords, id)
		if err := d.DeclareLink(id.U, id.V, DefaultLinkParams()); err != nil {
			b.Fatalf("declare chord: %v", err)
		}
	}
	cycle := func(id EdgeID) {
		if err := d.Appear(id.U, id.V); err != nil {
			b.Fatalf("appear: %v", err)
		}
		engine.RunUntil(engine.Now() + 0.2) // past τ: detections land
		if err := d.Disappear(id.U, id.V); err != nil {
			b.Fatalf("disappear: %v", err)
		}
		engine.RunUntil(engine.Now() + 0.2)
	}
	for _, id := range chords { // warm-up: allocate every chord's churnState
		cycle(id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle(chords[i%len(chords)])
	}
}

// BenchmarkTopoLink measures the one-probe link resolution every estimate
// query makes (handle, parameters and visibility of a directed edge) on a
// 10⁴-node ring, querying every directed ring pair round-robin. It must
// read 0 allocs/op.
func BenchmarkTopoLink(b *testing.B) {
	const n = 10000
	d := NewDynamic(n, sim.NewEngine(), sim.NewRNG(1))
	if err := Install(d, Ring(n), DefaultLinkParams()); err != nil {
		b.Fatal(err)
	}
	var seen int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := (i >> 1) % n
		v := (u + 1 - (i&1)*2 + n) % n // u+1, then u−1
		if _, p, sees, ok := d.Link(u, v); ok && sees && p.Eps > 0 {
			seen++
		}
	}
	if seen != b.N {
		b.Fatalf("%d of %d ring links resolved visible", seen, b.N)
	}
}
