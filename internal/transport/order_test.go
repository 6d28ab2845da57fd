package transport

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// delivered is one observed delivery: its time, class (0 beacon,
// 1 control), receiver, sender and the sender's per-class send index,
// which the sender stamps into the payload.
type delivered struct {
	at       sim.Time
	class    int
	to, from int
	seq      uint32
}

// cmpDelivered is the documented delivery order: the content key
// (deadline, to, from, per-class seq), beacons before controls at equal
// deadlines.
func cmpDelivered(a, b delivered) int {
	return cmp.Or(
		cmp.Compare(a.at, b.at),
		cmp.Compare(a.class, b.class),
		cmp.Compare(a.to, b.to),
		cmp.Compare(a.from, b.from),
		cmp.Compare(a.seq, b.seq),
	)
}

// orderCapture records deliveries per receiver (each receiver is owned by
// one drain shard, so per-receiver appends are race-free at any shard
// count) and, when global is set, in one global list.
type orderCapture struct {
	global  bool
	all     []delivered
	perRecv [][]delivered
	t       *testing.T
	links   map[topo.EdgeID]topo.LinkParams
}

func (c *orderCapture) record(r delivered, d Delivery) {
	p := c.links[topo.MakeEdgeID(r.from, r.to)]
	if transit := d.At - d.SentAt; transit < p.Delay-p.Uncertainty-1e-12 || transit > p.Delay+1e-12 {
		c.t.Errorf("%+v: transit %v outside [%v, %v]", r, transit, p.Delay-p.Uncertainty, p.Delay)
	}
	c.perRecv[r.to] = append(c.perRecv[r.to], r)
	if c.global {
		c.all = append(c.all, r)
	}
}

func (c *orderCapture) OnBeacon(to, from int, b Beacon, d Delivery) {
	c.record(delivered{at: d.At, class: 0, to: to, from: from, seq: uint32(b.L)}, d)
}

func (c *orderCapture) OnControl(to, from int, payload any, d Delivery) {
	c.record(delivered{at: d.At, class: 1, to: to, from: from, seq: payload.(uint32)}, d)
}

// runOrderTraffic sends random mixed beacon and control traffic over an
// 8-node ring with chords at event parallelism k and returns the capture
// and the number of messages sent. Half the links have zero uncertainty, so
// sends scheduled at the same instant over them land on equal deadlines and
// the tie-breaks of the content key decide the order; the rest draw their
// delays with RandomDelay.
func runOrderTraffic(t *testing.T, k int, seed int64) (*orderCapture, int) {
	const n = 8
	eng := sim.NewEngine()
	eng.SetEventParallelism(k)
	dyn := topo.NewDynamic(n, eng, sim.NewRNG(1))
	edges := append(topo.Ring(n), topo.MakeEdgeID(0, 4), topo.MakeEdgeID(1, 5), topo.MakeEdgeID(2, 6), topo.MakeEdgeID(3, 7))
	c := &orderCapture{global: k == 1, perRecv: make([][]delivered, n), t: t, links: map[topo.EdgeID]topo.LinkParams{}}
	for i, e := range edges {
		p := topo.LinkParams{Eps: 0.2, Tau: 0.1, Delay: 0.2, Uncertainty: 0}
		if i%2 == 1 {
			p = topo.LinkParams{Eps: 0.2, Tau: 0.1, Delay: 0.25, Uncertainty: 0.15}
		}
		if err := topo.Install(dyn, []topo.EdgeID{e}, p); err != nil {
			t.Fatal(err)
		}
		c.links[e] = p
	}
	eng.SetShardLookahead(dyn.InTransit)
	net := NewNetwork(eng, dyn, sim.NewRNG(2), RandomDelay{})
	net.SetHandler(c)

	rng := rand.New(rand.NewSource(seed))
	var seq [2][n]uint32
	sent := 0
	for i := 0; i < 600; i++ {
		at := float64(rng.Intn(200)) * 0.01 // coarse grid: many sends per instant
		e := edges[rng.Intn(len(edges))]
		from, to := e.U, e.V
		if rng.Intn(2) == 0 {
			from, to = to, from
		}
		class := 0
		if rng.Intn(10) < 3 {
			class = 1
		}
		s := seq[class][from]
		seq[class][from]++
		sent++
		eng.Schedule(at, func(sim.Time) {
			if class == 0 {
				net.SendBeacon(from, to, Beacon{L: float64(s)})
			} else {
				net.SendControl(from, to, s)
			}
		})
	}
	eng.RunUntil(10)
	return c, sent
}

// TestDeliveryOrderProperty checks the delivery order of both traffic
// classes against a sort by the content key. At event parallelism 1 the
// whole delivery sequence must already be sorted by (deadline, class, to,
// from, seq) and contain every send exactly once. At parallelism 4 there is
// no such global order: beacons of different shards drain concurrently,
// beacons inside a window may pass a pending control, and the engine breaks
// a deadline tie between shards by shard index, so equal-deadline controls
// to receivers on different shards fire in shard order. The comparison is
// therefore per receiver and class: each of those sequences must equal the
// serial run's, deadlines included.
func TestDeliveryOrderProperty(t *testing.T) {
	type key struct{ to, class int }
	for seed := int64(0); seed < 8; seed++ {
		serial, sent := runOrderTraffic(t, 1, seed)
		if len(serial.all) != sent {
			t.Fatalf("seed %d: delivered %d of %d messages", seed, len(serial.all), sent)
		}
		if !slices.IsSortedFunc(serial.all, cmpDelivered) {
			t.Fatalf("seed %d: serial delivery order is not the content-key order", seed)
		}
		seen := map[delivered]bool{}
		for _, r := range serial.all {
			id := delivered{class: r.class, to: r.to, from: r.from, seq: r.seq}
			if seen[id] {
				t.Fatalf("seed %d: %+v delivered twice", seed, id)
			}
			seen[id] = true
		}
		ties := 0
		for i := 1; i < len(serial.all); i++ {
			if serial.all[i].at == serial.all[i-1].at {
				ties++
			}
		}
		if ties == 0 {
			t.Fatalf("seed %d: no equal-deadline deliveries; the tie-breaks went untested", seed)
		}

		split := func(c *orderCapture) map[key][]delivered {
			m := map[key][]delivered{}
			for to, rs := range c.perRecv {
				for _, r := range rs {
					m[key{to, r.class}] = append(m[key{to, r.class}], r)
				}
			}
			return m
		}
		want := split(serial)
		par, _ := runOrderTraffic(t, 4, seed)
		got := split(par)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d receiver/class streams at parallelism 4, %d serially", seed, len(got), len(want))
		}
		for k, w := range want {
			if !slices.Equal(got[k], w) {
				t.Fatalf("seed %d: receiver %d class %d: parallelism 4 delivered\n%v\nserial\n%v", seed, k.to, k.class, got[k], w)
			}
		}
	}
}
