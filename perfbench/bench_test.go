package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	gradsync "repro"
	"repro/internal/estimate"
	"repro/internal/runner"
)

func TestTailTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: tailOf must sort
		}
		return xs
	}
	for _, c := range []struct {
		n          int
		value, pct float64
		beyond     int
	}{
		{n: 1000, value: 990, pct: 99, beyond: 10},
		{n: 100, value: 90, pct: 90, beyond: 10},
		{n: 11, value: 6, pct: 100 * 6.0 / 11, beyond: 5}, // too few: the median
		{n: 1, value: 1, pct: 100, beyond: 0},
	} {
		got := tailOf(seq(c.n))
		if got.Value != c.value || got.Pct != c.pct || got.Beyond != c.beyond || got.N != c.n {
			t.Errorf("n=%d: got %+v, want value %v pct %v beyond %d", c.n, got, c.value, c.pct, c.beyond)
		}
		if c.n > 2*minBeyond && got.Beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the tail", c.n, got.Beyond)
		}
	}
	if got := tailOf(nil); got != (tail{}) {
		t.Errorf("empty: got %+v", got)
	}
}

func TestLadderSearch(t *testing.T) {
	rates := []float64{100, 200, 300, 400}
	passUpTo := func(limit float64, invalidAt float64) func(float64) rungVerdict {
		return func(r float64) rungVerdict {
			return rungVerdict{rate: r, pass: r <= limit && r != invalidAt, invalid: r == invalidAt}
		}
	}
	// Bisection: 200 first, then 300 or 100, then 400.
	for _, c := range []struct {
		name       string
		try        func(float64) rungVerdict
		best       float64
		stepsTaken int
	}{
		{"knee inside", passUpTo(250, -1), 200, 2},
		{"all pass", passUpTo(1000, -1), 400, 3},
		{"none pass", passUpTo(50, -1), 0, 2},
		{"an invalid rung counts as a failure", passUpTo(1000, 300), 200, 2},
	} {
		best, steps := ladderSearch(rates, c.try)
		if best.rate != c.best || len(steps) != c.stepsTaken {
			t.Errorf("%s: best %v after %d steps, want %v after %d", c.name, best.rate, len(steps), c.best, c.stepsTaken)
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{0, 100}
	for _, c := range []struct {
		name     string
		children []span
		self     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{10, 20}, {50, 60}}, 80},
		{"overlapping shards", []span{{15, 30}, {10, 20}, {25, 28}}, 80},
		{"sticking out", []span{{-10, 5}, {90, 120}}, 85},
		{"outside", []span{{200, 300}}, 100},
		{"covering", []span{{0, 100}, {20, 30}}, 0},
	} {
		if got := selfTime(parent, append([]span(nil), c.children...)); got != c.self {
			t.Errorf("%s: self %d, want %d", c.name, got, c.self)
		}
	}
	// Several per-shard lists, each in time order, merge into one union.
	lists := [][]span{{{0, 10}, {40, 50}}, {{5, 15}, {45, 60}}, {}}
	if got := covered(parent, lists); got != 35 {
		t.Errorf("covered by shard lists = %d, want 35", got)
	}
}

func TestWindowedTail(t *testing.T) {
	lat := make([]float64, 750)
	for i := range lat {
		lat[i] = 1000
	}
	lat[400] = 1e6 // one stall, in the second window
	got, windows := windowedTail(lat, 250)
	if got != 1000 || windows != 3 {
		t.Errorf("tail %v over %d windows, want 1000 over 3 (the stall is within one window's ten beyond)", got, windows)
	}
	for i := 250; i < 500; i++ {
		lat[i] = 5000 // a slow second window moves only its own tail
	}
	if got, _ := windowedTail(lat, 250); got != 1000 {
		t.Errorf("one slow window moved the median tail to %v", got)
	}
	if lat[400] != 5000 {
		t.Error("windowedTail reordered its input")
	}
	if got, windows := windowedTail(lat[:100], 250); windows != 1 || got != 1000 {
		t.Errorf("short input: %v over %d windows", got, windows)
	}
}

func TestJudge(t *testing.T) {
	lim := rungLimits{tailUs: 5000, deliver: 0.95, genLateUs: 1000, backlogTol: 0.01}
	mk := func(n int, lat, late time.Duration, sentLag func(i int) time.Duration) *phase {
		p := &phase{rate: float64(n), dur: time.Second}
		for i := 0; i < n; i++ {
			// The connection frees up sentLag after the due time (a queue
			// ahead of the request), and the generator adds late.
			due := int64(i) * int64(time.Second) / int64(n)
			ready := due + int64(sentLag(i))
			sent := ready + int64(late)
			p.samples = append(p.samples, sample{due: due, ready: ready, sent: sent, done: sent + int64(lat), ok: true})
		}
		return p
	}
	none := func(int) time.Duration { return 0 }
	if v := judge(mk(1000, 100*time.Microsecond, 0, none), lim); !v.pass {
		t.Errorf("healthy rung failed: %s", v.why)
	}
	if v := judge(mk(1000, 10*time.Millisecond, 0, none), lim); v.pass || v.invalid {
		t.Errorf("slow rung: pass %v invalid %v", v.pass, v.invalid)
	}
	if v := judge(mk(1000, 100*time.Microsecond, 2*time.Millisecond, none), lim); !v.invalid {
		t.Errorf("late generator not flagged: %+v", v)
	}
	// A queue that builds up: each send slips further behind its due time.
	growing := func(i int) time.Duration { return time.Duration(i) * 500 * time.Microsecond }
	if v := judge(mk(1000, 100*time.Microsecond, 0, growing), lim); v.pass || v.backlog[1] <= v.backlog[0] {
		t.Errorf("growing backlog passed: %+v", v)
	}
}

func TestRoundTripFraming(t *testing.T) {
	big := strings.Repeat("x", 10000)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/small":
			w.Write([]byte(`{"ok":true}`))
		case "/chunked":
			// More than net/http buffers before it must chunk.
			for i := 0; i < 10; i++ {
				w.Write([]byte(big[:1000]))
				w.(http.Flusher).Flush()
			}
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()
	c, err := dial(strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	for i := 0; i < 3; i++ { // keep-alive: the framing must leave the stream aligned
		if body, err := c.roundTrip("/small"); err != nil || string(body) != `{"ok":true}` {
			t.Fatalf("small: %q, %v", body, err)
		}
		if body, err := c.roundTrip("/chunked"); err != nil || string(body) != big {
			t.Fatalf("chunked: %d bytes, %v", len(body), err)
		}
	}
	// Pipelined: one write, the replies read back in order; a 404 fails
	// alone and leaves the stream aligned.
	want := []string{`{"ok":true}`, big, "", `{"ok":true}`}
	if err := c.pipeline([]string{"/small", "/chunked", "/missing", "/small"}); err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	if len(c.replies) != len(want) {
		t.Fatalf("pipeline: %d replies, want %d", len(c.replies), len(want))
	}
	for i, rp := range c.replies {
		if i == 2 {
			if rp.err == nil || !strings.Contains(rp.err.Error(), "404") {
				t.Errorf("pipelined 404 not reported: %v", rp.err)
			}
			continue
		}
		if body := string(c.buf[rp.start:rp.end]); rp.err != nil || body != want[i] {
			t.Errorf("pipelined reply %d: %d bytes, %v", i, len(body), rp.err)
		}
	}
	c.close()
	if c, err = dial(strings.TrimPrefix(srv.URL, "http://")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.roundTrip("/missing"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("404 not reported: %v", err)
	}
}

func TestCheckBody(t *testing.T) {
	g := newGenerator("unused", 1, 4, 1)
	ok := func(ep endpoint, node int, body string) error { return g.checkBody(0, ep, node, []byte(body)) }
	if err := ok(epClockNode, 2, `{"node":2,"hw":5}`); err != nil {
		t.Errorf("good node reply: %v", err)
	}
	if err := ok(epClockNode, 2, `{"node":3,"hw":6}`); err == nil {
		t.Error("wrong node accepted")
	}
	if err := ok(epClockNode, 2, `{"node":2,"hw":4}`); err == nil {
		t.Error("hw going backwards accepted")
	}
	if err := ok(epLegality, 0, `{"legal":false,"bound":2,"maxLocalSkew":3}`); err == nil {
		t.Error("illegal verdict accepted")
	}
	if err := ok(epClock, 0, `{"nodes":[{"node":0}]}`); err == nil {
		t.Error("short clock list accepted")
	}
	if err := ok(epSkew, 0, `{"globalSkew":`); err == nil {
		t.Error("truncated body accepted")
	}
}

// smallNet builds an 8-ring that exercises the same layer interfaces as the
// benchmark workloads, at test size.
func smallNet(t *testing.T, messaging bool) *gradsync.Network {
	t.Helper()
	cfg := gradsync.Config{
		Topology: gradsync.RingTopology(8),
		Drift:    gradsync.TwoGroupDrift(4),
		Seed:     3,
	}
	if messaging {
		cfg.Estimates = gradsync.MessagingEstimates(false)
		cfg.TickParallelism, cfg.EventParallelism = 2, 2
	}
	net, err := gradsync.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestDecoratorsForwardInterfaces(t *testing.T) {
	msg := smallNet(t, true)
	rt := msg.Runtime()
	if _, ok := rt.Est.(*estimate.Messaging); !ok {
		t.Fatalf("messaging network has estimate layer %T", rt.Est)
	}
	instrument(rt)
	st, ok := rt.Algo().(runner.NodeStepper)
	if !ok || !st.CanStepNodes() {
		t.Error("decorated core.Algorithm lost NodeStepper")
	}
	if nl, ok := rt.Est.(estimate.NodeLocalLayer); !ok || !nl.NodeLocalQueries() {
		t.Error("decorated Messaging is not node-local")
	}
	if c, ok := rt.Est.(estimate.ConcurrentLayer); !ok || !c.ConcurrentQueries() {
		t.Error("decorated Messaging is not concurrent")
	}

	orc := smallNet(t, false).Runtime()
	instrument(orc)
	if nl, ok := orc.Est.(estimate.NodeLocalLayer); !ok || nl.NodeLocalQueries() {
		t.Error("decorated Oracle claims node-local queries")
	}
	if c, ok := orc.Est.(estimate.ConcurrentLayer); !ok || !c.ConcurrentQueries() {
		t.Error("decorated zero-error Oracle is not concurrent")
	}

	// A layer without either interface answers no to both.
	bare := tracedLayer{inner: struct{ estimate.Layer }{orc.Est}}
	if bare.ConcurrentQueries() || bare.NodeLocalQueries() {
		t.Error("decorator invented an interface the inner layer lacks")
	}
}

// TestTracedRunMatchesUntraced checks that the decorated program is the
// measured one: same final state, with tick crossing still firing.
func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, messaging := range []bool{false, true} {
		t.Run(fmt.Sprint("messaging=", messaging), func(t *testing.T) {
			plain, traced := smallNet(t, messaging), smallNet(t, messaging)
			tr := instrument(traced.Runtime())
			plain.RunFor(20)
			traced.RunFor(20)
			if a, b := fingerprint(plain), fingerprint(traced); a != b {
				t.Fatalf("fingerprints differ: %016x vs %016x", a, b)
			}
			tot := tr.totals()
			if tot.queries == 0 || tot.beaconCalls == 0 {
				t.Errorf("tracer saw no work: %+v", tot)
			}
			crossed := traced.Runtime().Engine.DrainStats().CrossedTicks
			if messaging && (crossed == 0 || tot.stepNodeCalls == 0) {
				t.Errorf("tick crossing off under the decorator: crossed %d, StepNode calls %d", crossed, tot.stepNodeCalls)
			}
			if !messaging && tot.stepNodeCalls != 0 {
				t.Errorf("oracle run stepped %d nodes lazily", tot.stepNodeCalls)
			}
			if plain.Runtime().Engine.DrainStats().CrossedTicks != crossed {
				t.Error("decorated run crossed a different number of ticks")
			}
		})
	}
}

// TestRefKernelFixed checks that the reference kernel does the same work on
// every run of the benchmark: two kernels agree run by run.
func TestRefKernelFixed(t *testing.T) {
	a, b := newRefKernel(), newRefKernel()
	for i := 0; i < 3; i++ {
		if x, y := a.run(refEvents), b.run(refEvents); x != y {
			t.Fatalf("run %d: checksums %v and %v", i, x, y)
		}
	}
	if n := a.queue.Len(); n != refNodes {
		t.Errorf("queue holds %d events after three runs, want %d", n, refNodes)
	}
}
