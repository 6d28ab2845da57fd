//go:build large

package gradsync_test

// The -tags large benchmarks: the N=10⁵ throughput rung the nightly
// workflow records via `make bench-large`. Kept behind the build tag so
// `go test -bench .` on a PR never pays for them.

import (
	"runtime"
	"testing"

	gradsync "repro"
	"repro/internal/experiments"
	"repro/internal/scenario"
)

// BenchmarkRuntime100k is the extreme-scale throughput record: one simulated
// time unit on a 100 000-node ring with chord churn-waves running. Its
// events/sec is the headline the nightly bench JSON archives next to
// BenchmarkRuntime10k. The subbenches pair the serial baseline against the
// full fan-out (tick + event shards at NumCPU) at the scale where per-tick
// node work dominates, with the tick-only middle rung separating the two
// speedups; outputs are byte-identical across all three, only wall-clock
// differs.
func BenchmarkRuntime100k(b *testing.B) {
	for _, v := range []struct {
		name    string
		tickPar int
		evPar   int
	}{
		{"par=1/evpar=1", 1, 1},
		{"par=max/evpar=1", runtime.NumCPU(), 1},
		{"par=max/evpar=max", runtime.NumCPU(), runtime.NumCPU()},
	} {
		b.Run(v.name, func(b *testing.B) {
			const n = 100000
			pairs := make([]scenario.Pair, 0, 64)
			for i := 0; i < 64; i++ {
				u := i * (n / 2) / 64 // anchors span half the ring: 64 distinct chords
				pairs = append(pairs, scenario.Pair{u, u + n/2})
			}
			net := gradsync.MustNew(gradsync.Config{
				Topology:         gradsync.RingTopology(n),
				DiameterHint:     n / 2,
				Drift:            gradsync.TwoGroupDrift(n / 2),
				Scenario:         &scenario.ChurnWaves{WaveEvery: 4, BurstSize: 6, Spacing: 0.3, Pairs: pairs},
				TickParallelism:  v.tickPar,
				EventParallelism: v.evPar,
				Seed:             1,
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.RunFor(1)
			}
			b.StopTimer()
			events := net.Runtime().Engine.Stepped
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
			st := net.Runtime().Engine.DrainStats()
			if st.Windows > 0 {
				b.ReportMetric(st.MeanEventsPerWindow(), "events/window")
			}
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			b.ReportMetric(float64(ms.HeapAlloc)/float64(n), "B/node")
			runtime.KeepAlive(net)
		})
	}
}

// BenchmarkE16ExtremeScale regenerates the E16 report at full large-tier
// size (N=10⁵ per topology under this build tag); shape failures fail the
// benchmark, so the nightly run double-checks the tier's assertions.
func BenchmarkE16ExtremeScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E16ExtremeScale(experiments.Spec{Seed: 1})
		if i == 0 {
			b.Log("\n" + res.String())
		}
		if !res.Pass {
			b.Fatalf("E16 failed shape checks: %v", res.Failures)
		}
	}
}
