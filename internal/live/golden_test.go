package live

import (
	"math/rand"
	"runtime"
	"testing"
)

// goldenFingerprint is the Replay fingerprint of goldenTrace. It pins the
// live node's step rule (vote inequalities, mode switch, integration and
// max-estimate flood) to fixed float output: a change to any of them moves
// the fingerprint, which the live-vs-replay test cannot see because both of
// its sides run the same code. The constant holds on amd64, where Go never
// fuses a multiply and an add; architectures that may fuse them (arm64,
// ppc64le, s390x) round some steps differently.
const goldenFingerprint = "e8e52fb7a53e04c92c4fdba5961ff46f2a245b0c575f1eeaf4029d2cfd3f97dc"

// goldenTrace builds a deterministic 60-node ring trace of 300 ticks. Every
// node ticks with its own slight drift and, after every tick, hears a
// beacon from each ring neighbour. The beacons are scripted per receiver:
// each receiver sees its left and right neighbour at seeded offsets from
// the true time, drawn from ±3 and drifting by a random walk, plus jitter.
// A neighbour's max estimate M is its clock ±0.3, or — on a third of the
// receiver sides, fixed up front — 2 to 3 below it, so a far-ahead
// neighbour need not drag the receiver's own max estimate along and the
// fast-blocked vote can decide a mode. Over the ring the neighbour
// estimates spread across every vote threshold: all four votes and every
// branch of the mode switch are taken, and a shifted inequality changes
// some node's decision. The run is short, so no node's own clock runs far
// from the true time.
func goldenTrace() (TraceHeader, []TraceRecord) {
	const n, steps = 60, 300
	h := TraceHeader{
		Version: 1, N: n, Edges: ringEdges(n),
		S: 1, Rho: 0.1 / 60, Mu: 0.1, Iota: 0.05,
		Tick: 0.02, BeaconInterval: 0.25,
		Link: traceParams{Eps: 0.05, Tau: 0.05, Delay: 0.1, Uncertainty: 0.05},
	}
	rng := rand.New(rand.NewSource(14))
	off := make([][2]float64, n)
	lowM := make([][2]bool, n)
	for u := range off {
		off[u] = [2]float64{6*rng.Float64() - 3, 6*rng.Float64() - 3}
		lowM[u] = [2]bool{rng.Intn(3) == 0, rng.Intn(3) == 0}
	}
	hw := make([]float64, n)
	seq := make([]uint64, n)
	var recs []TraceRecord
	add := func(r TraceRecord) {
		r.Seq = seq[r.Node]
		seq[r.Node]++
		r.HW = hw[r.Node]
		recs = append(recs, r)
	}
	for k := 1; k <= steps; k++ {
		t := float64(k) * h.Tick
		for u := 0; u < n; u++ {
			dh := h.Tick * (1 + float64(u%5-2)*h.Rho/2)
			hw[u] += dh
			add(TraceRecord{Kind: RecTick, T: t, Node: u, DH: dh})
		}
		for u := 0; u < n; u++ {
			for side, v := range [2]int{(u + n - 1) % n, (u + 1) % n} {
				off[u][side] += 0.1 * (2*rng.Float64() - 1)
				l := t + off[u][side] + 0.05*(2*rng.Float64()-1)
				m := l + 0.3*(2*rng.Float64()-1)
				if lowM[u][side] {
					m = l - 2 - rng.Float64()
				}
				add(TraceRecord{
					Kind: RecBeacon, T: t + h.Tick/2, Node: u, From: v,
					LSent: l, MSent: m, MinTransit: 0.05,
				})
			}
		}
	}
	return h, recs
}

// TestLiveRuleGolden replays goldenTrace and compares the final state
// fingerprint with the recorded constant.
func TestLiveRuleGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden fingerprint recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	h, recs := goldenTrace()
	res, err := Replay(h, recs)
	if err != nil {
		t.Fatal(err)
	}
	var fast, slow uint64
	for _, s := range res.Snapshots {
		fast += s.Fast
		slow += s.Slow
	}
	if fast == 0 || slow == 0 {
		t.Fatalf("trace reaches only one mode: fast %d slow %d", fast, slow)
	}
	if res.Fingerprint != goldenFingerprint {
		t.Fatalf("live rule fingerprint %s, golden %s", res.Fingerprint, goldenFingerprint)
	}
}
