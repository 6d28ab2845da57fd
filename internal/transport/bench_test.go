package transport

// Layer benchmarks for the transport: the delivery queue alone and the
// send→deliver path through Network and sim.Engine. Both must report
// 0 allocs/op (pooled records, recycled slots); `make bench-json` archives
// them.

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// BenchmarkQueue measures one pop plus one push at a steady population of
// ~6.6k in flight (the per-shard beacon population of the 10⁴-node ring),
// deadlines uniform over the upper half of the delay window after the
// popped one.
func BenchmarkQueue(b *testing.B) {
	const inFlight, delay = 6600, 0.2
	rng := rand.New(rand.NewSource(1))
	var q queue[Beacon]
	var seq uint32
	for i := 0; i < inFlight; i++ {
		q.push(rec[Beacon]{to: int32(i), seq: seq, deadline: delay * rng.Float64()})
		seq++
	}
	b.ReportAllocs()
	for b.Loop() {
		now := q.root().deadline
		q.pop()
		q.push(rec[Beacon]{to: int32(seq % inFlight), seq: seq, deadline: now + delay*(0.5+rng.Float64()/2)})
		seq++
	}
}

// relay forwards every delivered beacon to the receiver's ring successor
// and stops the engine after left deliveries.
type relay struct {
	net  *Network
	eng  *sim.Engine
	n    int
	left int
}

func (r *relay) OnBeacon(to, _ int, b Beacon, _ Delivery) {
	if r.left--; r.left == 0 {
		r.eng.Stop()
	}
	r.net.SendBeacon(to, (to+1)%r.n, b)
}

func (r *relay) OnControl(int, int, any, Delivery) {}

// BenchmarkTransportDeliver measures one send→deliver round trip through
// Network and sim.Engine on a 10⁴-node ring: every node keeps one beacon
// in flight, each delivery forwards it one hop onward with a RandomDelay
// transit, so an op is one queue pop, one visibility check, one handler
// call, one link lookup, one delay draw and one queue push.
func BenchmarkTransportDeliver(b *testing.B) {
	const n = 10000
	eng := sim.NewEngine()
	dyn := topo.NewDynamic(n, eng, sim.NewRNG(1))
	if err := topo.Install(dyn, topo.Ring(n), params()); err != nil {
		b.Fatal(err)
	}
	net := NewNetwork(eng, dyn, sim.NewRNG(2), RandomDelay{})
	r := &relay{net: net, eng: eng, n: n, left: b.N}
	net.SetHandler(r)
	for u := 0; u < n; u++ {
		net.SendBeacon(u, (u+1)%n, Beacon{})
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.RunUntil(1e15)
	if r.left > 0 {
		b.Fatalf("run ended with %d deliveries left", r.left)
	}
}
