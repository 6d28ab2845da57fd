package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/estimate"
	"repro/internal/runner"
	"repro/internal/topo"
)

// benchRuntime wires a 32-node line running AOPT with the oracle estimate
// layer (or, with messaging, beacon-sample estimates) and warms it up until
// all edges participate in trigger evaluation.
func benchRuntime(b testing.TB, messaging bool) (*runner.Runtime, *core.Algorithm) {
	b.Helper()
	const n = 32
	rt, err := runner.New(runner.Config{
		N: n, Tick: 0.02, BeaconInterval: 0.25,
		Drift: drift.TwoGroup{Rho: 0.1 / 60, Split: n / 2},
		Seed:  1,
	})
	if err != nil {
		b.Fatalf("runner: %v", err)
	}
	for _, e := range topo.Line(n) {
		if err := rt.Dyn.DeclareLink(e.U, e.V, topo.DefaultLinkParams()); err != nil {
			b.Fatalf("declare: %v", err)
		}
	}
	p := core.Params{Rho: 0.1 / 60, Mu: 0.1, GTilde: 8}
	algo := core.MustNew(p)
	if messaging {
		rt.SetEstimator(estimate.NewMessaging(n, rt.Dyn, rt.Hardware, estimate.MessagingConfig{
			Rho: p.Rho, Mu: p.Mu, BeaconInterval: 0.25, TickSlop: 0.04,
		}))
	} else {
		rt.SetEstimator(estimate.NewOracle(rt.Dyn, algo.Logical, estimate.Amplify{}))
	}
	rt.Attach(algo)
	for _, e := range topo.Line(n) {
		if err := rt.Dyn.AppearInstant(e.U, e.V); err != nil {
			b.Fatalf("appear: %v", err)
		}
	}
	if err := rt.Start(); err != nil {
		b.Fatalf("start: %v", err)
	}
	rt.Run(5) // warm up: scratch buffers grown, all edges evaluated
	return rt, algo
}

// BenchmarkCoreStep measures one integration tick of the AOPT trigger
// evaluation (decideMode over every node plus clock integration) on a
// 32-node line with oracle estimates. The per-tick path must not allocate:
// run with -benchmem and expect 0 allocs/op (TestCoreStepNoAllocs pins it).
func BenchmarkCoreStep(b *testing.B) { benchCoreStep(b, false) }

// BenchmarkCoreStepMessaging is BenchmarkCoreStep on the Messaging layer:
// every trigger evaluation reads a beacon sample by directed-edge handle.
// The engine does not run between ticks, so the samples stay certified.
func BenchmarkCoreStepMessaging(b *testing.B) { benchCoreStep(b, true) }

func benchCoreStep(b *testing.B, messaging bool) {
	rt, algo := benchRuntime(b, messaging)
	step := ticker(rt, algo)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// ticker returns a function applying one 0.02-unit integration tick to every
// node through Algorithm.Step, outside the engine.
func ticker(rt *runner.Runtime, algo *core.Algorithm) func() {
	dH := make([]float64, rt.N())
	for u := range dH {
		dH[u] = 0.02
	}
	t := rt.Engine.Now()
	return func() {
		t += 0.02
		algo.Step(t, dH)
	}
}

// TestCoreStepNoAllocs pins the 0-allocation tick on both estimate layers
// outside benchmark runs, and that every Messaging query finds a certified
// sample, so the benchmark times the full trigger fold.
func TestCoreStepNoAllocs(t *testing.T) {
	for _, messaging := range []bool{false, true} {
		rt, algo := benchRuntime(t, messaging)
		step := ticker(rt, algo)
		missing := algo.MissingEstimates
		if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
			t.Errorf("messaging=%v: Step allocates %v per tick, want 0", messaging, allocs)
		}
		if algo.MissingEstimates != missing {
			t.Errorf("messaging=%v: %d estimate queries missed during the ticks", messaging, algo.MissingEstimates-missing)
		}
	}
}

// BenchmarkNeighborLevels measures per-node level sampling through
// AppendNeighborLevels with a reused scratch buffer; 0 allocs/op.
func BenchmarkNeighborLevels(b *testing.B) {
	rt, algo := benchRuntime(b, false)
	var scratch []core.NeighborLevel
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = algo.AppendNeighborLevels(i%rt.N(), scratch[:0])
	}
}

// TestAppendNeighborLevelsNoAllocs pins the 0-allocation contract outside
// benchmark runs, so `go test` alone catches a regression.
func TestAppendNeighborLevelsNoAllocs(t *testing.T) {
	rt, algo := benchRuntime(t, false)
	var scratch []core.NeighborLevel
	scratch = algo.AppendNeighborLevels(1, scratch[:0]) // grow once
	allocs := testing.AllocsPerRun(100, func() {
		scratch = algo.AppendNeighborLevels(1, scratch[:0])
	})
	if allocs != 0 {
		t.Fatalf("AppendNeighborLevels allocates %v per call, want 0", allocs)
	}
	if len(scratch) == 0 {
		t.Fatal("no visible neighbors sampled")
	}
	_ = rt
}
