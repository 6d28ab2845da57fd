package gradsync_test

// One benchmark per experiment in the reproduction index (EXPERIMENTS.md):
// each
// regenerates its paper table at bench scale and reports the rows through
// b.Log, so `go test -bench=.` reproduces every "table and figure" of the
// reproduction. Failures of the shape assertions fail the benchmark.
//
// Micro-benchmarks for the substrate (event engine, trigger evaluation,
// estimate layer) follow at the end.

import (
	"fmt"
	"runtime"
	"testing"

	gradsync "repro"
	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/sweep"
)

func benchExperiment(b *testing.B, run experiments.Runner) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res := run(experiments.Spec{Quick: true, Seed: 1})
		if i == 0 {
			b.Log("\n" + res.String())
		}
		if !res.Pass {
			b.Fatalf("%s failed shape checks: %v", res.ID, res.Failures)
		}
	}
}

func BenchmarkE01GlobalSkew(b *testing.B)   { benchExperiment(b, experiments.E01GlobalSkew) }
func BenchmarkE02GradientSkew(b *testing.B) { benchExperiment(b, experiments.E02GradientSkew) }
func BenchmarkE03LocalSkewVsD(b *testing.B) { benchExperiment(b, experiments.E03LocalSkewVsD) }
func BenchmarkE04Stabilization(b *testing.B) {
	benchExperiment(b, experiments.E04Stabilization)
}
func BenchmarkE05LowerBound(b *testing.B) { benchExperiment(b, experiments.E05LowerBound) }
func BenchmarkE06MuSweep(b *testing.B)    { benchExperiment(b, experiments.E06MuSweep) }
func BenchmarkE07Churn(b *testing.B)      { benchExperiment(b, experiments.E07Churn) }
func BenchmarkE08SelfStab(b *testing.B)   { benchExperiment(b, experiments.E08SelfStab) }
func BenchmarkE09Weighted(b *testing.B)   { benchExperiment(b, experiments.E09Weighted) }
func BenchmarkE10DynamicEstimates(b *testing.B) {
	benchExperiment(b, experiments.E10DynamicEstimates)
}
func BenchmarkE11EstimateLayer(b *testing.B) { benchExperiment(b, experiments.E11EstimateLayer) }
func BenchmarkE12Ablations(b *testing.B)     { benchExperiment(b, experiments.E12Ablations) }

// BenchmarkSimulationStep measures the cost of one simulated time unit on a
// 32-node line running AOPT (50 integration ticks plus beacon traffic).
func BenchmarkSimulationStep(b *testing.B) {
	net := gradsync.MustNew(gradsync.Config{
		Topology: gradsync.LineTopology(32),
		Drift:    gradsync.TwoGroupDrift(16),
		Seed:     1,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.RunFor(1)
	}
}

// BenchmarkSimulationStepMessaging is the same with the message-protocol
// estimate layer instead of the oracle.
func BenchmarkSimulationStepMessaging(b *testing.B) {
	net := gradsync.MustNew(gradsync.Config{
		Topology:  gradsync.LineTopology(32),
		Drift:     gradsync.TwoGroupDrift(16),
		Estimates: gradsync.MessagingEstimates(true),
		Seed:      1,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.RunFor(1)
	}
}

// BenchmarkEngineEvents measures raw event queue throughput.
func BenchmarkEngineEvents(b *testing.B) {
	e := sim.NewEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(1, func(sim.Time) {})
		if i%1024 == 1023 {
			e.RunUntil(e.Now() + 2)
		}
	}
	e.RunUntil(e.Now() + 2)
}

// BenchmarkLargeNetwork runs a 128-node torus for one time unit, the
// largest configuration the experiments use.
func BenchmarkLargeNetwork(b *testing.B) {
	net := gradsync.MustNew(gradsync.Config{
		Topology: gradsync.TorusTopology(12, 11),
		Drift:    gradsync.SinusoidDrift(40),
		Seed:     1,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.RunFor(1)
	}
}

func BenchmarkE13InsertionStrategies(b *testing.B) {
	benchExperiment(b, experiments.E13InsertionStrategies)
}

func BenchmarkE14ScenarioMatrix(b *testing.B) {
	benchExperiment(b, experiments.E14ScenarioMatrix)
}

func BenchmarkE15LargeScale(b *testing.B) {
	benchExperiment(b, experiments.E15LargeScale)
}

func BenchmarkE16ExtremeScaleQuick(b *testing.B) {
	benchExperiment(b, experiments.E16ExtremeScale)
}

// BenchmarkRuntime10k is the scale-tier throughput record: one simulated
// time unit on a 10 000-node ring with chord churn running (50 integration
// ticks, 40k beacons, their deliveries, and the churn handshakes). The
// ns/op trajectory of this benchmark is the substrate's headline number in
// BENCH_sweep.json. The subbenches step through the two fan-out axes:
// everything serial, tick shards only, then tick + event shards together —
// so the record separates the sharded-tick speedup from the sharded-drain
// speedup on top of it ("max" is NumCPU, the E15/E16 default; the name is
// machine-independent so records diff across hosts, and the outputs are
// byte-identical across all three — only the wall-clock may differ).
// The messaging rung swaps the oracle estimate layer for the beacon
// protocol: only it carries drain traffic (the oracle sends no messages, so
// its drain windows are empty), which makes it the rung whose events/window
// metric tracks the window-widening machinery — sharded serial controls,
// per-shard lookahead, and tick crossing all fire on it. Its shard count is
// pinned at 8 rather than NumCPU: the drain's window structure (and so the
// events/window figure) is a function of the logical shard count, and a
// fixed K keeps that figure comparable across hosts — including single-core
// runners, where "max" degrades to the serial drain and reports no windows
// at all.
func BenchmarkRuntime10k(b *testing.B) {
	for _, v := range []struct {
		name      string
		tickPar   int
		evPar     int
		messaging bool
	}{
		{"par=1/evpar=1", 1, 1, false},
		{"par=max/evpar=1", runtime.NumCPU(), 1, false},
		{"par=max/evpar=max", runtime.NumCPU(), runtime.NumCPU(), false},
		{"par=max/evpar=8/messaging", runtime.NumCPU(), 8, true},
	} {
		b.Run(v.name, func(b *testing.B) {
			const n = 10000
			pairs := make([]scenario.Pair, 0, 64)
			for i := 0; i < 64; i++ {
				u := i * (n / 2) / 64 // anchors span half the ring: 64 distinct chords
				pairs = append(pairs, scenario.Pair{u, u + n/2})
			}
			cfg := gradsync.Config{
				Topology:         gradsync.RingTopology(n),
				DiameterHint:     n / 2,
				Drift:            gradsync.TwoGroupDrift(n / 2),
				Scenario:         &scenario.Churn{Every: 1.5, Pairs: pairs},
				TickParallelism:  v.tickPar,
				EventParallelism: v.evPar,
				Seed:             1,
			}
			if v.messaging {
				cfg.Estimates = gradsync.MessagingEstimates(false)
			}
			net := gradsync.MustNew(cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.RunFor(1)
			}
			b.StopTimer()
			events := net.Runtime().Engine.Stepped
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
			st := net.Runtime().Engine.DrainStats()
			if st.Windows > 0 {
				// Drain-batching quality: how many events the average parallel
				// window carried. Archived in BENCH_sweep.json next to
				// events/sec, so window-widening work (per-shard lookahead,
				// serial controls, tick crossing) has a tracked number.
				b.ReportMetric(st.MeanEventsPerWindow(), "events/window")
			}
			// Mem footer in the scale-tier format; benchjson parses these
			// lines into the mem section of BENCH_sweep.json and -compare
			// gates bytes/node. Printed directly (not b.Log) so the line
			// reaches the bench output stream unindented.
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			fmt.Printf("=== mem Runtime10k/%s: N=%d live heap %.1f MiB (%.0f B/node) ===\n",
				v.name, n, float64(ms.HeapAlloc)/(1<<20), float64(ms.HeapAlloc)/float64(n))
			runtime.KeepAlive(net)
		})
	}
}

// BenchmarkSweepReplicas measures the multi-seed sweep engine at several
// worker-pool sizes on one experiment (8 replicas of E01 at bench scale).
// The parallel=k/parallel=1 wall-clock ratio is the speedup headline; the
// report is byte-identical across pool sizes, so only time may differ.
func BenchmarkSweepReplicas(b *testing.B) {
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := experiments.RunReplicated(experiments.E01GlobalSkew,
					experiments.Spec{Quick: true, Seed: 1, Seeds: 8, Parallelism: par})
				if !res.Pass {
					b.Fatalf("E01 failed shape checks: %v", res.Failures)
				}
			}
		})
	}
}

// BenchmarkSweepPoolOverhead isolates the pool's scheduling cost: replicas
// that do no work, so any measured time is Map bookkeeping.
func BenchmarkSweepPoolOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sweep.Each(64, 8, func(int) {})
	}
}
