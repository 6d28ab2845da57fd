package estimate

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/transport"
)

// BenchmarkEstimate measures one estimate query — the call A^OPT's trigger
// fold makes per visible neighbor per tick — on a 10⁴-node ring, querying
// every directed ring pair round-robin so the adjacency rows and sample
// records stream through the cache as they do in a full tick. Every query
// must succeed (a certified messaging sample, a visible oracle link), and
// the steady state must read 0 allocs/op.
func BenchmarkEstimate(b *testing.B) {
	const n = 10000
	eng := sim.NewEngine()
	dyn := topo.NewDynamic(n, eng, sim.NewRNG(1))
	if err := topo.Install(dyn, topo.Ring(n), topo.DefaultLinkParams()); err != nil {
		b.Fatal(err)
	}
	clocks := make([]float64, n)
	clock := func(u int) float64 { return clocks[u] }
	msg := NewMessaging(n, dyn, clock, MessagingConfig{
		Rho: 0.002, Mu: 0.1, BeaconInterval: 0.25, TickSlop: 0.04,
	})
	for u := 0; u < n; u++ {
		for _, v := range []int{(u + 1) % n, (u + n - 1) % n} {
			msg.RecordBeacon(u, v, transport.Beacon{L: 1}, transport.Delivery{MinTransit: 0.05})
		}
	}
	for _, c := range []struct {
		name  string
		layer Layer
	}{
		{"oracle", NewOracle(dyn, clock, nil)},
		{"messaging", msg},
	} {
		b.Run(c.name, func(b *testing.B) {
			var sum float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := (i >> 1) % n
				v := (u + 1 - (i&1)*2 + n) % n // u+1, then u−1
				est, ok := c.layer.Estimate(u, v)
				if !ok {
					b.Fatalf("Estimate(%d,%d) not ok", u, v)
				}
				sum += est
			}
			if sum < 0 {
				b.Fatal("negative estimate sum")
			}
		})
	}
}
