package gradsync_test

// This file is the determinism net for the structure-of-arrays storage
// (runner.Config.ReferenceLayout): the same randomized full runs that pin the
// sharded tick must produce byte-identical state on the CSR/slab layout and
// on the retired map-backed layout — and the SoA run must stay identical
// under the sharded tick and sharded event drain, so the layout change
// composes with both concurrency fan-outs. The 8-shard replays also run under
// `make race`, putting the SoA read paths in front of the detector.

import (
	"fmt"
	"testing"

	gradsync "repro"
	"repro/internal/scenario"
)

// TestLayoutDifferential replays randomized full runs — topology, scenario,
// drift adversary, estimate layer, algorithm all drawn per case — once on the
// reference map layout (serial) and then on the default SoA layout at
// tick/event shard counts (1,1), (2,2) and (8,8). Clocks, max estimates,
// event counts and every algorithm counter must match bit-for-bit.
func TestLayoutDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential replays take a few seconds")
	}
	for caseSeed := int64(101); caseSeed <= 112; caseSeed++ {
		c := randomTickCase(caseSeed)
		t.Run(c.name, func(t *testing.T) {
			run := func(ref bool, par int) tickFingerprint {
				cfg := c.build(par)
				cfg.EventParallelism = par
				cfg.ReferenceLayout = ref
				net := gradsync.MustNew(cfg)
				net.RunFor(c.horizon)
				return fingerprint(net)
			}
			refFP := run(true, 1)
			for _, par := range []int{1, 2, 8} {
				if d := refFP.diff(run(false, par)); d != "" {
					t.Fatalf("SoA layout at parallelism %d diverged from reference layout: %s", par, d)
				}
			}
		})
	}
	// Messaging estimates crossed with fast mode: an initial skew ramp makes
	// A^OPT's fast trigger fire on message-based estimates under churn, so
	// the flat sample store is pinned against the map store while the
	// estimate values decide the mode (the random cases above may draw
	// messaging runs that never leave slow mode).
	for _, centered := range []bool{false, true} {
		t.Run(fmt.Sprintf("fast/messaging/centered=%v", centered), func(t *testing.T) {
			const n = 16
			ramp := make([]float64, n)
			for u := range ramp {
				ramp[u] = 0.6 * float64(u)
			}
			run := func(ref bool, par int) tickFingerprint {
				net := gradsync.MustNew(gradsync.Config{
					Topology:         gradsync.LineTopology(n),
					Algorithm:        gradsync.AOPT(),
					Drift:            gradsync.TwoGroupDrift(n / 2),
					Estimates:        gradsync.MessagingEstimates(centered),
					Scenario:         &scenario.Churn{Every: 2},
					InitialClocks:    ramp,
					TickParallelism:  par,
					EventParallelism: par,
					ReferenceLayout:  ref,
					Seed:             12,
				})
				net.RunFor(30)
				return fingerprint(net)
			}
			refFP := run(true, 1)
			t.Logf("reference run: %d fast, %d slow, %d missing-estimate ticks", refFP.fast, refFP.slow, refFP.missing)
			if refFP.fast == 0 {
				t.Fatalf("reference run never entered fast mode (slow ticks %d): the case does not cross fast mode", refFP.slow)
			}
			for _, par := range []int{1, 2, 8} {
				if d := refFP.diff(run(false, par)); d != "" {
					t.Fatalf("SoA layout at parallelism %d diverged from reference layout: %s", par, d)
				}
			}
		})
	}
}
