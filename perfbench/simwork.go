package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"runtime"
	"syscall"
	"time"

	gradsync "repro"
	"repro/internal/scenario"
)

const (
	ringN = 10000
	// chords is the number of seed-chosen ring chords the churn toggles.
	chords = 64
	// simSetups is how often a run builds the network to time set-up.
	simSetups = 11
	// warmUnits run before timing: in every repetition of the untraced
	// run, and on both networks of the traced run.
	warmUnits = 2
	// countUnits is the fixed window, after warm-up, over which a traced
	// run takes its count metrics, so counts repeat exactly per seed.
	countUnits = 12
	// ladderSamples is the number of node pairs checked per hop distance.
	ladderSamples = 48
	// unitTailWindow is the number of consecutive units a tail is read
	// over (each window's p94.5, by the ≥ minBeyond rule); the run reports
	// the median window, so one host stall does not set a run's tail.
	unitTailWindow = 200
	// repUnits is the number of units one repetition of the untraced run
	// times.
	repUnits = 16
)

// ladderHops are the hop distances of the Corollary 7.10 check (the E15
// ladder).
var ladderHops = []int{1, 4, 16, 64, 256}

// simWorkload is a 10⁴-ring workload driven through gradsync.New and
// Network.RunFor.
type simWorkload struct {
	messaging bool
}

// simInstance is one built network with the scenario whose health the
// checks read.
type simInstance struct {
	net   *gradsync.Network
	churn *scenario.Churn
}

// build constructs the workload's network for seed. The seed picks the
// chords and is the network's own seed; the program sees only the config.
func (w simWorkload) build(seed int64) (simInstance, error) {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x9e3779b97f4a7c15))
	seen := make(map[scenario.Pair]bool, chords)
	pairs := make([]scenario.Pair, 0, chords)
	for len(pairs) < chords {
		// Long chords (a quarter to three quarters of the ring away), so
		// toggling one changes distances across the diameter.
		u := rng.IntN(ringN)
		v := (u + ringN/4 + rng.IntN(ringN/2)) % ringN
		p := scenario.Pair{min(u, v), max(u, v)}
		if !seen[p] {
			seen[p] = true
			pairs = append(pairs, p)
		}
	}
	churn := &scenario.Churn{Every: 1.5, Pairs: pairs}
	cfg := gradsync.Config{
		Topology:         gradsync.RingTopology(ringN),
		DiameterHint:     ringN / 2,
		Drift:            gradsync.TwoGroupDrift(ringN / 2),
		Estimates:        gradsync.OracleEstimates("zero"),
		Scenario:         churn,
		TickParallelism:  1,
		EventParallelism: 1,
		Seed:             seed,
	}
	if w.messaging {
		par := runtime.GOMAXPROCS(0)
		cfg.Estimates = gradsync.MessagingEstimates(false)
		cfg.TickParallelism, cfg.EventParallelism = par, par
	}
	net, err := gradsync.New(cfg)
	if err != nil {
		return simInstance{}, err
	}
	return simInstance{net: net, churn: churn}, nil
}

// fingerprint hashes every node's logical clock bit pattern.
func fingerprint(net *gradsync.Network) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for u := 0; u < net.N(); u++ {
		bits := math.Float64bits(net.Logical(u))
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// ladderPairs draws the node pairs of the distance-ladder check.
func ladderPairs(seed int64) [][]int {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x1adde5))
	out := make([][]int, len(ladderHops))
	for i := range out {
		out[i] = make([]int, ladderSamples)
		for s := range out[i] {
			out[i][s] = rng.IntN(ringN)
		}
	}
	return out
}

// check runs the output checks on a network between units: global skew
// within G̃, the Corollary 7.10 ladder along ring paths (ring edges never
// churn, so a ring path of d hops is stable and its bound applies whatever
// chords are up), no trigger conflict (Lemma 5.3), and a healthy scenario.
func (s simInstance) check(ladder [][]int) error {
	var errs []error
	if g, gt := s.net.GlobalSkew(), s.net.GTilde(); !(g <= gt) {
		errs = append(errs, fmt.Errorf("global skew %v exceeds G̃ %v", g, gt))
	}
	for i, d := range ladderHops {
		bound := s.net.GradientBoundHops(d)
		for _, u := range ladder[i] {
			if sk := s.net.SkewBetween(u, (u+d)%ringN); !(sk <= bound) {
				errs = append(errs, fmt.Errorf("skew %v between %d and %d (%d hops) exceeds bound %v", sk, u, (u+d)%ringN, d, bound))
				break
			}
		}
	}
	if c := s.net.Core().TriggerConflicts; c != 0 {
		errs = append(errs, fmt.Errorf("%d trigger conflicts", c))
	}
	if s.churn.Err != nil {
		errs = append(errs, fmt.Errorf("churn: %w", s.churn.Err))
	}
	return errors.Join(errs...)
}

// runUnit advances net by one sim unit and returns the wall time it took.
func runUnit(net *gradsync.Network) time.Duration {
	t0 := time.Now()
	net.RunFor(1)
	return time.Since(t0)
}

// setUpTime builds the network simSetups times, each from a collected heap
// so that none pays for the garbage of the one before, and returns the
// median build time.
func (w simWorkload) setUpTime(seed int64) (float64, error) {
	times := make([]float64, 0, simSetups)
	for i := 0; i < simSetups; i++ {
		runtime.GC()
		t0 := time.Now()
		if _, err := w.build(seed); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), nil
}

// warm runs both networks through the warm-up and checks that the twin
// reached the same state.
func warm(measured, twin *gradsync.Network) error {
	measured.RunFor(warmUnits)
	twin.RunFor(warmUnits)
	if a, b := fingerprint(measured), fingerprint(twin); a != b {
		return fmt.Errorf("two runs of one seed diverged: fingerprint %016x vs %016x", a, b)
	}
	return nil
}

// run measures the workload with tracing off: the end-to-end metrics. The
// run repeats one fixed stretch of work — build the network, warm it up,
// time repUnits units — until the measured time is used up, so every run
// times the same units whatever the host's speed (a unit's cost grows with
// simulated time as chords churn). Each repetition must end in the same
// state as the first. After every unit the benchmark's reference kernel
// runs, and the unit's cost is its wall time over the kernel's: a shared
// host whose speed drifts between runs, or another process taking a core
// for a while, slows both alike.
func (w simWorkload) run(o options, r *report) error {
	setupS, err := w.setUpTime(o.seed)
	if err != nil {
		return err
	}
	ladder := ladderPairs(o.seed)
	ref := newRefKernel()
	ref.run(refEvents) // first touch of its memory

	var (
		cost, unitUs, refUs []float64
		first               uint64
		last                simInstance
		reps                int
	)
	for deadline := time.Now().Add(o.seconds); reps == 0 || time.Now().Before(deadline); reps++ {
		inst, err := w.build(o.seed)
		if err != nil {
			return err
		}
		runtime.GC()
		inst.net.RunFor(warmUnits)
		for i := 0; i < repUnits; i++ {
			t0 := time.Now()
			inst.net.RunFor(1)
			t1 := time.Now()
			ref.run(refEvents)
			t2 := time.Now()
			u, k := float64(t1.Sub(t0)), float64(t2.Sub(t1))
			cost, unitUs, refUs = append(cost, u/k), append(unitUs, u/1e3), append(refUs, k/1e3)
			r.attempted++
			if err := inst.check(ladder); err != nil {
				r.fail(1, fmt.Errorf("t=%.0f: %w", inst.net.Now(), err))
			}
		}
		if fp := fingerprint(inst.net); reps == 0 {
			first = fp
		} else if fp != first {
			r.fail(1, fmt.Errorf("repetition %d of one seed diverged: fingerprint %016x vs %016x", reps, fp, first))
		}
		last = inst
	}

	ref = nil // not part of the program's heap
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapPerNode := float64(ms.HeapAlloc) / float64(last.net.N())
	runtime.KeepAlive(last.net)

	p50 := median(cost)
	tailCost, windows := windowedTail(cost, unitTailWindow)
	var wallUs float64
	for _, u := range unitUs {
		wallUs += u
	}
	rawTail, _ := windowedTail(unitUs, unitTailWindow)
	r.metric("op_cost_p50", p50, "ref")
	r.metric("op_cost_tail", tailCost, "ref")
	r.metric("mem_bytes_per_node", heapPerNode, "B")
	r.metric("setup_s", setupS, "s")
	r.notef("unit_cost_p50       %.4f ref  (a unit's wall time over the reference kernel's, median of %d units: %d repetitions of %d after %d warm-up)", p50, len(cost), reps, repUnits, warmUnits)
	r.notef("unit_cost_tail      %.4f ref  (median over %d windows of up to %d units of each window's tail with %d beyond)", tailCost, windows, unitTailWindow, minBeyond)
	r.notef("sim_units_per_s     %.4f 1/s  (wall clock, this host; reference kernel median %.3f ms)", float64(len(unitUs))/(wallUs/1e6), median(refUs)/1e3)
	r.notef("unit_ms_p50         %.3f ms  (wall clock)", median(unitUs)/1e3)
	r.notef("unit_ms_tail        %.3f ms  (wall clock, windowed as the cost tail)", rawTail/1e3)
	r.notef("heap_bytes_per_node %.1f B  (live heap after forced GC / N=%d)", heapPerNode, last.net.N())
	r.notef("setup_s             %.4f s  (median of %d builds, each after a forced GC)", setupS, simSetups)
	return nil
}

// rusage returns the process's user+system CPU time.
func rusage() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// simCounts is a snapshot of the program's own cumulative counters.
type simCounts struct {
	stepped, windows, windowEvents, serial, crossed uint64
	truncGlobal, truncControl, truncLookahead       uint64
	sent, dropped                                   uint64
	fast, slow, missing                             uint64
	toggles                                         int
}

func countsOf(s simInstance) simCounts {
	rt := s.net.Runtime()
	ds := rt.Engine.DrainStats()
	c := s.net.Core()
	return simCounts{
		stepped: rt.Engine.Stepped, windows: ds.Windows, windowEvents: ds.WindowEvents,
		serial: ds.SerialSteps, crossed: ds.CrossedTicks,
		truncGlobal: ds.TruncGlobal, truncControl: ds.TruncControl, truncLookahead: ds.TruncLookahead,
		sent: rt.Net.Sent(), dropped: rt.Net.Dropped(),
		fast: c.FastTicks, slow: c.SlowTicks, missing: c.MissingEstimates,
		toggles: s.churn.Toggles,
	}
}

// runTraced measures the per-layer metrics: an untraced network and an
// instrumented one from the same seed advance unit by unit in alternation.
// The untraced side gives the Go runtime figures and the baseline for the
// tracing overhead; the instrumented side gives the layer spans. Counts are
// taken over the fixed window of countUnits units after warm-up, times over
// every measured unit. The two networks must end in the same state.
func (w simWorkload) runTraced(o options, r *report) error {
	plain, err := w.build(o.seed)
	if err != nil {
		return err
	}
	traced, err := w.build(o.seed)
	if err != nil {
		return err
	}
	tr := instrument(traced.net.Runtime())
	if err := warm(plain.net, traced.net); err != nil {
		r.fail(1, err)
	}
	tr.resetSpans()
	ladder := ladderPairs(o.seed)

	var (
		plainNs, tracedNs, selfNs int64
		cpu                       time.Duration
		gcCycles, gcPauseNs       uint64
		allocBytes                uint64
		units                     int
		c0, c1                    simCounts
		l0, l1                    layerTotals
		slab                      uint64
	)
	c0, l0 = countsOf(plain), tr.totals()
	var ms0, ms1 runtime.MemStats
	deadline := time.Now().Add(o.seconds)
	for units < countUnits || time.Now().Before(deadline) {
		runtime.ReadMemStats(&ms0)
		cpu0 := rusage()
		d := runUnit(plain.net)
		cpu += rusage() - cpu0
		runtime.ReadMemStats(&ms1)
		plainNs += d.Nanoseconds()
		gcCycles += uint64(ms1.NumGC - ms0.NumGC)
		gcPauseNs += ms1.PauseTotalNs - ms0.PauseTotalNs
		allocBytes += ms1.TotalAlloc - ms0.TotalAlloc

		parent := span{start: tr.now()}
		traced.net.RunFor(1)
		parent.end = tr.now()
		tracedNs += parent.end - parent.start
		selfNs += parent.end - parent.start - covered(parent, tr.spanLists())
		tr.resetSpans()

		units++
		r.attempted++
		if err := plain.check(ladder); err != nil {
			r.fail(1, fmt.Errorf("t=%.0f: %w", plain.net.Now(), err))
		}
		if units == countUnits {
			c1, l1 = countsOf(plain), tr.totals()
			slab = plain.net.Runtime().Net.SlabBytes()
		}
	}
	if a, b := fingerprint(plain.net), fingerprint(traced.net); a != b {
		r.fail(1, fmt.Errorf("traced run diverged from the untraced run: fingerprint %016x vs %016x", b, a))
	}
	lAll := tr.totals().sub(l0)
	lc := l1.sub(l0)

	fu, cu := float64(units), float64(countUnits)
	// Node-ticks in the count window: barrier ticks step every node, crossed
	// ticks step them one StepNode call at a time.
	nodeTicks := float64(lc.stepCalls)*float64(plain.net.N()) + float64(lc.stepNodeCalls)
	ms := func(ns int64) float64 { return float64(ns) / 1e6 / fu }
	frac := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	per := func(a, b uint64) float64 { return float64(a-b) / cu }

	r.metric("core.step_ms_per_unit", ms(lAll.stepNs), "ms")
	r.metric("core.step_calls_per_unit", float64(lc.stepCalls)/cu, "count")
	r.metric("core.stepnode_ms_per_unit", ms(lAll.stepNodeNs), "ms")
	r.metric("core.stepnode_calls_per_unit", float64(lc.stepNodeCalls)/cu, "count")
	r.metric("core.beacon_ms_per_unit", ms(lAll.beaconNs), "ms")
	r.metric("core.beacon_calls_per_unit", float64(lc.beaconCalls)/cu, "count")
	r.metric("core.control_ms_per_unit", ms(lAll.controlNs), "ms")
	r.metric("core.control_calls_per_unit", float64(lc.controlCalls)/cu, "count")
	r.metric("core.fast_frac", float64(c1.fast-c0.fast)/nodeTicks, "frac")
	r.metric("core.slow_frac", float64(c1.slow-c0.slow)/nodeTicks, "frac")
	r.metric("core.missing_estimate_frac", frac(c1.missing-c0.missing, lc.queries), "frac")
	r.metric("core.trigger_conflicts", float64(plain.net.Core().TriggerConflicts), "count")
	r.metric("estimate.queries_per_unit", float64(lc.queries)/cu, "count")
	r.metric("estimate.ok_frac", frac(lc.useful, lc.queries), "frac")
	r.metric("runner.self_ms_per_unit", ms(selfNs), "ms")
	r.metric("sim.events_per_unit", per(c1.stepped, c0.stepped), "count")
	r.metric("sim.windows_per_unit", per(c1.windows, c0.windows), "count")
	r.metric("sim.events_per_window", frac(c1.windowEvents-c0.windowEvents, c1.windows-c0.windows), "count")
	r.metric("sim.serial_steps_per_unit", per(c1.serial, c0.serial), "count")
	r.metric("sim.crossed_ticks_per_unit", per(c1.crossed, c0.crossed), "count")
	r.metric("sim.trunc_global_per_unit", per(c1.truncGlobal, c0.truncGlobal), "count")
	r.metric("sim.trunc_control_per_unit", per(c1.truncControl, c0.truncControl), "count")
	r.metric("sim.trunc_lookahead_per_unit", per(c1.truncLookahead, c0.truncLookahead), "count")
	r.metric("transport.sent_per_unit", per(c1.sent, c0.sent), "count")
	r.metric("transport.dropped_per_unit", per(c1.dropped, c0.dropped), "count")
	r.metric("transport.slab_bytes", float64(slab), "B")
	r.metric("scenario.toggles_per_unit", float64(c1.toggles-c0.toggles)/cu, "count")
	r.metric("go.gc_cycles_per_unit", float64(gcCycles)/fu, "count")
	r.metric("go.gc_pause_ms_per_unit", float64(gcPauseNs)/1e6/fu, "ms")
	r.metric("go.alloc_bytes_per_unit", float64(allocBytes)/fu, "B")
	r.metric("process.cpu_util", cpu.Seconds()/(float64(plainNs)/1e9), "cores")
	r.metric("trace.overhead_frac", float64(tracedNs)/float64(plainNs)-1, "frac")
	r.notef("traced %d units (counts over the first %d); fingerprints equal: %v", units, countUnits, fingerprint(plain.net) == fingerprint(traced.net))
	return nil
}
