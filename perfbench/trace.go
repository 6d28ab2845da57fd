package main

import (
	"time"

	"repro/internal/estimate"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/transport"
)

// The tracing decorators wrap the two layer interfaces a network calls
// through — runner.Algorithm (with its runner.NodeStepper face) and
// estimate.Layer — so a traced run measures the unmodified program from
// outside. Spans and counts land in per-shard blocks that only the owning
// shard writes during a drain window; the engine's barriers order those
// writes before the benchmark reads them between units.

// shardTrace is one event shard's record: the spans of the core calls the
// shard ran (beacon deliveries and crossed-tick node steps), in the order it
// ran them, plus busy-time sums and call counts.
type shardTrace struct {
	spans         []span
	beaconNs      int64
	beaconCalls   uint64
	stepNodeNs    int64
	stepNodeCalls uint64
	_             [64]byte // shards write concurrently: keep blocks off each other's cache lines
}

// tracer collects the spans and counts of one traced network. Spans are
// nanosecond offsets from base.
type tracer struct {
	base   time.Time
	shards []shardTrace // indexed by event shard (receiver mod K for beacons)
	serial shardTrace   // engine goroutine: Step, OnControl, OnEdgeUp/Down

	stepNs, controlNs       int64
	stepCalls, controlCalls uint64

	// Estimate queries are ~10⁶ per sim unit and cheaper than a clock
	// read, so they are counted, never timed. Counters are per querying
	// node: the sharded tick and the drain windows both give each node a
	// single writer.
	queries, useful []uint64
}

func newTracer(n, shards int) *tracer {
	return &tracer{
		base:    time.Now(),
		shards:  make([]shardTrace, shards),
		queries: make([]uint64, n),
		useful:  make([]uint64, n),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// layerTotals is a snapshot of the tracer's cumulative counters.
type layerTotals struct {
	stepNs, stepNodeNs, beaconNs, controlNs             int64
	stepCalls, stepNodeCalls, beaconCalls, controlCalls uint64
	queries, useful                                     uint64
}

func (t *tracer) totals() layerTotals {
	tot := layerTotals{
		stepNs: t.stepNs, stepCalls: t.stepCalls,
		controlNs: t.controlNs, controlCalls: t.controlCalls,
	}
	for _, s := range append([]shardTrace{t.serial}, t.shards...) {
		tot.stepNodeNs += s.stepNodeNs
		tot.stepNodeCalls += s.stepNodeCalls
		tot.beaconNs += s.beaconNs
		tot.beaconCalls += s.beaconCalls
	}
	for u := range t.queries {
		tot.queries += t.queries[u]
		tot.useful += t.useful[u]
	}
	return tot
}

func (a layerTotals) sub(b layerTotals) layerTotals {
	return layerTotals{
		stepNs: a.stepNs - b.stepNs, stepNodeNs: a.stepNodeNs - b.stepNodeNs,
		beaconNs: a.beaconNs - b.beaconNs, controlNs: a.controlNs - b.controlNs,
		stepCalls: a.stepCalls - b.stepCalls, stepNodeCalls: a.stepNodeCalls - b.stepNodeCalls,
		beaconCalls: a.beaconCalls - b.beaconCalls, controlCalls: a.controlCalls - b.controlCalls,
		queries: a.queries - b.queries, useful: a.useful - b.useful,
	}
}

// spanLists returns every recorded span list (each in time order).
func (t *tracer) spanLists() [][]span {
	lists := [][]span{t.serial.spans}
	for i := range t.shards {
		lists = append(lists, t.shards[i].spans)
	}
	return lists
}

// resetSpans drops the recorded spans, keeping their storage.
func (t *tracer) resetSpans() {
	t.serial.spans = t.serial.spans[:0]
	for i := range t.shards {
		t.shards[i].spans = t.shards[i].spans[:0]
	}
}

// tracedAlgo decorates a runner.Algorithm. It always carries the
// runner.NodeStepper methods and answers CanStepNodes with the inner
// algorithm's answer (false when the inner one is no NodeStepper), so tick
// crossing stays on exactly when it was on undecorated.
type tracedAlgo struct {
	inner   runner.Algorithm
	stepper runner.NodeStepper // nil when inner is no NodeStepper
	t       *tracer
}

var (
	_ runner.Algorithm   = (*tracedAlgo)(nil)
	_ runner.NodeStepper = (*tracedAlgo)(nil)
)

func wrapAlgo(inner runner.Algorithm, t *tracer) *tracedAlgo {
	st, _ := inner.(runner.NodeStepper)
	return &tracedAlgo{inner: inner, stepper: st, t: t}
}

func (a *tracedAlgo) Name() string { return a.inner.Name() }

// Init does not reach the inner algorithm: the decorator is attached to a
// network gradsync.New already built, started and initialized, and a second
// Init would discard the edge state of the instantly visible initial
// topology.
func (a *tracedAlgo) Init(*runner.Runtime) {}

func (a *tracedAlgo) OnEdgeUp(self, peer int, at sim.Time) {
	s := a.t.now()
	a.inner.OnEdgeUp(self, peer, at)
	a.control(s)
}

func (a *tracedAlgo) OnEdgeDown(self, peer int, at sim.Time) {
	s := a.t.now()
	a.inner.OnEdgeDown(self, peer, at)
	a.control(s)
}

func (a *tracedAlgo) OnControl(to, from int, payload any, d transport.Delivery) {
	s := a.t.now()
	a.inner.OnControl(to, from, payload, d)
	a.control(s)
}

func (a *tracedAlgo) control(s int64) {
	e := a.t.now()
	a.t.serial.spans = append(a.t.serial.spans, span{s, e})
	a.t.controlNs += e - s
	a.t.controlCalls++
}

// OnBeacon runs on the event shard that owns the receiver (receiver mod K,
// the transport's keying), so it records into that shard's block.
func (a *tracedAlgo) OnBeacon(to, from int, b transport.Beacon, d transport.Delivery) {
	sh := &a.t.shards[to%len(a.t.shards)]
	s := a.t.now()
	a.inner.OnBeacon(to, from, b, d)
	e := a.t.now()
	sh.spans = append(sh.spans, span{s, e})
	sh.beaconNs += e - s
	sh.beaconCalls++
}

func (a *tracedAlgo) Step(at sim.Time, dH []float64) {
	s := a.t.now()
	a.inner.Step(at, dH)
	e := a.t.now()
	a.t.serial.spans = append(a.t.serial.spans, span{s, e})
	a.t.stepNs += e - s
	a.t.stepCalls++
}

func (a *tracedAlgo) Logical(u int) float64     { return a.inner.Logical(u) }
func (a *tracedAlgo) MaxEstimate(u int) float64 { return a.inner.MaxEstimate(u) }

func (a *tracedAlgo) CanStepNodes() bool { return a.stepper != nil && a.stepper.CanStepNodes() }

func (a *tracedAlgo) StepNode(u, shard int, dh float64) {
	sh := &a.t.shards[shard]
	s := a.t.now()
	a.stepper.StepNode(u, shard, dh)
	e := a.t.now()
	sh.spans = append(sh.spans, span{s, e})
	sh.stepNodeNs += e - s
	sh.stepNodeCalls++
}

func (a *tracedAlgo) FinishTick() { a.stepper.FinishTick() }

// tracedLayer decorates an estimate.Layer with per-node query counts. It
// answers the ConcurrentLayer and NodeLocalLayer questions with the inner
// layer's answers (false where the inner layer lacks the interface, which
// is how the runtime reads a missing interface too).
type tracedLayer struct {
	inner estimate.Layer
	t     *tracer
}

var (
	_ estimate.ConcurrentLayer = tracedLayer{}
	_ estimate.NodeLocalLayer  = tracedLayer{}
)

func (l tracedLayer) Estimate(u, v int) (float64, bool) {
	x, ok := l.inner.Estimate(u, v)
	l.t.queries[u]++
	if ok {
		l.t.useful[u]++
	}
	return x, ok
}

func (l tracedLayer) Eps(u, v int) float64 { return l.inner.Eps(u, v) }

func (l tracedLayer) ConcurrentQueries() bool {
	c, ok := l.inner.(estimate.ConcurrentLayer)
	return ok && c.ConcurrentQueries()
}

func (l tracedLayer) NodeLocalQueries() bool {
	c, ok := l.inner.(estimate.NodeLocalLayer)
	return ok && c.NodeLocalQueries()
}

// instrument installs both decorators on a built, started runtime: the
// estimate layer through the public Runtime.Est field (the runtime keeps
// feeding beacons to the concrete Messaging layer it recorded at
// SetEstimator), the algorithm through Attach.
func instrument(rt *runner.Runtime) *tracer {
	t := newTracer(rt.N(), rt.Engine.EventShards())
	rt.Est = tracedLayer{inner: rt.Est, t: t}
	rt.Attach(wrapAlgo(rt.Algo(), t))
	return t
}
