// Package transport delivers messages over the dynamic estimate graph with
// bounded, adversary-controlled delays. Two kinds of traffic exist in the
// reproduced system: periodic beacons (carrying logical-clock values and max
// estimates, Section 4.2) and explicit control messages (the edge-insertion
// handshake of Listing 1).
package transport

import (
	"math"
	"unsafe"

	"repro/internal/sim"
	"repro/internal/topo"
)

// Beacon is the periodic synchronization message. L and M are the sender's
// logical clock and max estimate at send time.
type Beacon struct {
	L float64
	M float64
}

// Delivery carries the metadata a receiver may legitimately use: when the
// message arrived and the certified minimum transit time (Delay−Uncertainty
// for the edge). The actual delay is intentionally not exposed.
type Delivery struct {
	From, To   int
	SentAt     sim.Time
	At         sim.Time
	MinTransit float64
}

// Handler receives delivered traffic.
type Handler interface {
	OnBeacon(to, from int, b Beacon, d Delivery)
	OnControl(to, from int, payload any, d Delivery)
}

// DelayPolicy chooses the transit time of each message within the edge's
// legal window [Delay−Uncertainty, Delay]. Implementations act as the delay
// adversary. Random draws come from s, the sender's private SplitMix64
// stream: giving each sender its own stream makes a node's delay sequence a
// function of its identity and send count alone, independent of how sends
// of different nodes interleave — the property the sharded event drain
// needs to stay bit-identical to the serial engine at any shard count.
type DelayPolicy interface {
	Draw(s *sim.Stream, from, to int, p topo.LinkParams) float64
}

// RandomDelay draws uniformly from the legal window.
type RandomDelay struct{}

// Draw implements DelayPolicy.
func (RandomDelay) Draw(s *sim.Stream, _, _ int, p topo.LinkParams) float64 {
	if p.Uncertainty <= 0 || s == nil {
		return p.Delay
	}
	return s.Uniform(p.Delay-p.Uncertainty, p.Delay)
}

// MaxDelay always uses the maximum delay.
type MaxDelay struct{}

// Draw implements DelayPolicy.
func (MaxDelay) Draw(_ *sim.Stream, _, _ int, p topo.LinkParams) float64 { return p.Delay }

// MinDelay always uses the minimum delay.
type MinDelay struct{}

// Draw implements DelayPolicy.
func (MinDelay) Draw(_ *sim.Stream, _, _ int, p topo.LinkParams) float64 {
	return p.Delay - p.Uncertainty
}

// ShiftDelay is the classic shifting adversary: messages travelling towards
// higher node ids get minimum delay, messages towards lower ids get maximum
// delay (or the reverse if TowardLow is set). Combined with a matching drift
// schedule this hides accumulated skew from the algorithm, which is how the
// Section 8 lower-bound execution is realized operationally.
type ShiftDelay struct {
	TowardLow bool
}

// Draw implements DelayPolicy.
func (s ShiftDelay) Draw(_ *sim.Stream, from, to int, p topo.LinkParams) float64 {
	towardHigh := to > from
	if towardHigh != s.TowardLow {
		return p.Delay - p.Uncertainty
	}
	return p.Delay
}

// rec is one pooled in-flight message: a beacon (P = Beacon) or a control
// (P = any). Records are recycled through a per-shard free list, so the
// steady-state send/deliver path allocates nothing. Fields are packed to
// keep the record at 56 bytes for both payloads (int32 ids, uint32 seq,
// 4 bytes of padding) — in-flight slabs are a top-line memory consumer at
// N=10⁷.
type rec[P any] struct {
	from, to int32
	// seq is the sender's per-class send counter, the last tie-break of the
	// content key: it preserves FIFO among same-(from,to) same-deadline
	// messages and — unlike a global sequence — is identical at every shard
	// count. uint32 wraps after 4.3·10⁹ sends per sender, orders of
	// magnitude beyond any run, and a wrap could only reorder same-deadline
	// same-pair messages.
	seq        uint32
	deadline   sim.Time
	sentAt     sim.Time
	minTransit float64
	payload    P
}

// delivery is the receiver-visible metadata of r, delivered at now.
func (r *rec[P]) delivery(now sim.Time) Delivery {
	return Delivery{
		From:       int(r.from),
		To:         int(r.to),
		SentAt:     r.sentAt,
		At:         now,
		MinTransit: r.minTransit,
	}
}

// queue is a pooled deadline queue: a record slab, a free list of recycled
// slots and a 4-ary min-heap of slots ordered by the content key. It has the
// shape of internal/sim's event queue (see Engine) but only ever pops the
// root, so its records keep no heap position; the engine's do, because
// Cancel removes events at arbitrary positions.
type queue[P any] struct {
	msgs []rec[P] // pooled record slab
	free []int32  // recycled slots
	heap []int32  // 4-ary min-heap of slots, ordered by the content key
}

// peek returns the earliest pending deadline, or +Inf when none.
func (q *queue[P]) peek() sim.Time {
	if len(q.heap) == 0 {
		return math.Inf(1)
	}
	return q.msgs[q.heap[0]].deadline
}

// push inserts a record, taking a slot from the free list and growing the
// slab only when the pool is dry.
func (q *queue[P]) push(r rec[P]) {
	var slot int32
	if l := len(q.free); l > 0 {
		slot = q.free[l-1]
		q.free = q.free[:l-1]
	} else {
		slot = int32(len(q.msgs))
		q.msgs = append(q.msgs, rec[P]{})
	}
	q.msgs[slot] = r
	q.heap = append(q.heap, slot)
	q.siftUp(len(q.heap) - 1)
}

// root returns the earliest record; it stays valid until pop.
func (q *queue[P]) root() *rec[P] { return &q.msgs[q.heap[0]] }

// pop removes the earliest record and recycles its slot with the payload
// cleared, so a released control drops its reference and a handler that
// sends again may reuse the slot. Callers read the record through root
// first.
func (q *queue[P]) pop() {
	slot := q.heap[0]
	var zero P
	q.msgs[slot].payload = zero
	l := len(q.heap) - 1
	q.heap[0] = q.heap[l]
	q.heap = q.heap[:l]
	if l > 0 {
		q.siftDown(0)
	}
	q.free = append(q.free, slot)
}

// slabBytes is the queue's retained storage (heap and free entries are
// int32 slots).
func (q *queue[P]) slabBytes() uint64 {
	return uint64(cap(q.msgs))*uint64(unsafe.Sizeof(rec[P]{})) + uint64(cap(q.free)+cap(q.heap))*4
}

// less orders records by the content key (deadline, to, from, sender-seq):
// a total order over distinct messages of one class that depends only on
// the messages themselves, so delivery order is identical at every shard
// count. Among same-pair ties the sender-seq keeps FIFO send order.
func (ma *rec[P]) less(mb *rec[P]) bool {
	if ma.deadline != mb.deadline {
		return ma.deadline < mb.deadline
	}
	if ma.to != mb.to {
		return ma.to < mb.to
	}
	if ma.from != mb.from {
		return ma.from < mb.from
	}
	return ma.seq < mb.seq
}

func (q *queue[P]) siftUp(i int) {
	h, msgs := q.heap, q.msgs
	slot := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !msgs[slot].less(&msgs[h[p]]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = slot
}

func (q *queue[P]) siftDown(i int) {
	h, msgs := q.heap, q.msgs
	l := len(h)
	slot := h[i]
	for {
		c := i<<2 + 1
		if c >= l {
			break
		}
		best := c
		end := c + 4
		if end > l {
			end = l
		}
		for j := c + 1; j < end; j++ {
			if msgs[h[j]].less(&msgs[h[best]]) {
				best = j
			}
		}
		if !msgs[h[best]].less(&msgs[slot]) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = slot
}

// netShard owns the in-flight beacons addressed to the receivers it is
// keyed to (shard = receiver mod K). During a parallel window only the
// owning shard pops its queue; sends whose receiver lives on another shard
// are staged in out[recvShard] and folded at the window barrier, so cell
// (g, s) of the outbox matrix is written only by shard g in the drain phase
// and read only by shard s in the flush phase — never both at once.
type netShard struct {
	queue[Beacon]
	out           [][]rec[Beacon]
	sent, dropped uint64
	_             [2]uint64 // pad: shards bump counters concurrently
}

// Network schedules deliveries over a dynamic graph. A message is delivered
// only if the receiver still sees the sender at delivery time; this matches
// the model's guarantee that delivery is assured only while the estimate
// edge persists at the receiver.
//
// Both traffic classes live in receiver-sharded pooled deadline queues of
// one kind (queue): beacons with P = Beacon, controls with P = any. Beacons
// — the high-volume traffic — are registered with the engine as a
// sim.Source, which is what the sharded event drain parallelizes; their
// windows are bounded per receiving shard by topo.Dynamic.InTransit, and a
// cross-shard send inside a window lands at or after the window's end.
// Controls (handshake-rate) are registered as a *serial* source
// (sim.Engine.AddSerialSource): their handlers need serial-context rights —
// they schedule global retry timers and read cross-shard skew state — so
// each control fires one at a time at its own timestamp, but a pending
// control does not truncate parallel windows; the engine clamps the
// post-window clock back to it instead. Within one receiving shard,
// delivery order at equal deadlines is the content key (deadline, to, from,
// sender-seq) for both classes, with beacons due at the same instant
// delivered before controls (source registration order) and global events
// before either. With K = 1 that is the whole order. With K > 1 the engine
// breaks a deadline tie between shards by shard index, so equal-deadline
// controls to receivers on different shards fire in shard order, not
// content-key order.
type Network struct {
	engine  *sim.Engine
	dyn     *topo.Dynamic
	policy  DelayPolicy
	handler Handler

	shards []netShard
	// streams holds each sender's private delay-draw stream; senderSeq and
	// ctlSeq its beacon and control send counters (separate streams keep
	// each class's content keys dense and self-contained). All are indexed
	// by sender and touched only from the sender's own event context.
	streams   []sim.Stream
	senderSeq []uint32
	ctlSeq    []uint32

	// ctlShards are the receiver-sharded pooled control queues, drained
	// through the controlQueue serial source. Controls are only pushed and
	// popped in serial contexts, so unlike netShard they need no outboxes
	// or counter padding.
	ctlShards []queue[any]
}

// NewNetwork wires a transport over the given graph and registers it as an
// event source with the engine (sized to the engine's EventShards; set
// EventParallelism before building the network). handler may be set later
// with SetHandler. rng seeds the per-sender delay streams.
func NewNetwork(engine *sim.Engine, dyn *topo.Dynamic, rng *sim.RNG, policy DelayPolicy) *Network {
	if policy == nil {
		policy = RandomDelay{}
	}
	n := &Network{engine: engine, dyn: dyn, policy: policy}
	k := engine.EventShards()
	n.shards = make([]netShard, k)
	for s := range n.shards {
		n.shards[s].out = make([][]rec[Beacon], k)
	}
	base := rng.Uint64()
	n.streams = make([]sim.Stream, dyn.N())
	for u := range n.streams {
		n.streams[u] = sim.NewStream(base, u)
	}
	n.senderSeq = make([]uint32, dyn.N())
	n.ctlSeq = make([]uint32, dyn.N())
	n.ctlShards = make([]queue[any], k)
	engine.AddSource(n)
	engine.AddSerialSource((*controlQueue)(n))
	return n
}

// SetHandler installs the traffic handler.
func (n *Network) SetHandler(h Handler) { n.handler = h }

// Sent returns the number of messages handed to the transport (diagnostic).
func (n *Network) Sent() uint64 {
	var sum uint64
	for s := range n.shards {
		sum += n.shards[s].sent
	}
	return sum
}

// Dropped returns the number of messages dropped because the receiver no
// longer saw the sender at delivery time (diagnostic).
func (n *Network) Dropped() uint64 {
	var sum uint64
	for s := range n.shards {
		sum += n.shards[s].dropped
	}
	return sum
}

// SlabBytes returns the bytes retained by the transport's pooled storage:
// message and control slabs, their heaps, free lists and outboxes, plus the
// per-sender streams and sequence counters. Capacities grow append-only from
// deterministic traffic, so for a fixed configuration the figure is exact
// and reproducible — the transport's line in the memory-diet regression gate
// (TestTransportSlabFootprintRing), complementing the whole-process live-heap
// measurement.
func (n *Network) SlabBytes() uint64 {
	const slotBytes = 4 // sequence counters are uint32
	total := uint64(0)
	for s := range n.shards {
		sh := &n.shards[s]
		total += sh.slabBytes()
		for d := range sh.out {
			total += uint64(cap(sh.out[d])) * uint64(unsafe.Sizeof(rec[Beacon]{}))
		}
	}
	for s := range n.ctlShards {
		total += n.ctlShards[s].slabBytes()
	}
	total += uint64(len(n.streams)) * uint64(unsafe.Sizeof(sim.Stream{}))
	total += uint64(cap(n.senderSeq)+cap(n.ctlSeq)) * slotBytes
	return total
}

// SendBeacon transmits a beacon from → to if the link is declared, stamped
// at the current engine time. Delivery happens after the drawn delay,
// provided the receiver sees the sender then.
func (n *Network) SendBeacon(from, to int, b Beacon) {
	n.SendBeaconAt(from, to, b, n.engine.Now())
}

// SendBeaconAt is SendBeacon with an explicit send time: the beacon wheel
// passes its slot time, which during a parallel window is the event's own
// time (the engine clock is not advanced per-item inside a window).
func (n *Network) SendBeaconAt(from, to int, b Beacon, at sim.Time) {
	params, ok := n.dyn.Params(from, to)
	if !ok {
		return
	}
	k := len(n.shards)
	src := &n.shards[from%k]
	src.sent++
	m := rec[Beacon]{from: int32(from), to: int32(to), seq: n.senderSeq[from], sentAt: at, payload: b}
	n.senderSeq[from]++
	m.deadline, m.minTransit = n.transit(from, to, params, at)
	dst := to % k
	if n.engine.InWindow() && dst != from%k {
		// Cross-shard send inside a window: stage for the barrier fold. The
		// deadline is ≥ window-start + InTransit(dst) ≥ the window's end on
		// shard dst, so deferring the push past the window can never skip a
		// due delivery.
		src.out[dst] = append(src.out[dst], m)
		return
	}
	n.shards[dst].push(m)
}

// SendControl transmits an arbitrary control payload (handshake messages)
// into the receiver-sharded control queue. Control senders are serial
// contexts themselves — handshake timers, OnControl handlers, topology
// transitions — so sending from inside a parallel window is a contract
// violation and panics (window items have no path that sends controls; if
// one grows, controls would need outbox staging like beacons).
func (n *Network) SendControl(from, to int, payload any) {
	if n.engine.InWindow() {
		panic("transport: SendControl during a parallel window")
	}
	params, ok := n.dyn.Params(from, to)
	if !ok {
		return
	}
	n.shards[from%len(n.shards)].sent++
	at := n.engine.Now()
	c := rec[any]{from: int32(from), to: int32(to), seq: n.ctlSeq[from], sentAt: at, payload: payload}
	n.ctlSeq[from]++
	c.deadline, c.minTransit = n.transit(from, to, params, at)
	n.ctlShards[to%len(n.ctlShards)].push(c)
}

// transit draws the sender's delay for one send from → to at time at,
// clamped to the link's legal window [Delay−Uncertainty, Delay], and
// returns the delivery deadline and the certified minimum transit.
func (n *Network) transit(from, to int, p topo.LinkParams, at sim.Time) (deadline sim.Time, minTransit float64) {
	minTransit = p.Delay - p.Uncertainty
	delay := n.policy.Draw(&n.streams[from], from, to, p)
	if delay < minTransit {
		delay = minTransit
	}
	if delay > p.Delay {
		delay = p.Delay
	}
	return at + delay, minTransit
}

// BroadcastBeacon sends the beacon to every neighbor currently visible to
// from, stamped at the current engine time.
func (n *Network) BroadcastBeacon(from int, b Beacon, scratch []int) []int {
	return n.BroadcastBeaconAt(from, b, scratch, n.engine.Now())
}

// BroadcastBeaconAt is BroadcastBeacon with an explicit send time (see
// SendBeaconAt).
func (n *Network) BroadcastBeaconAt(from int, b Beacon, scratch []int, at sim.Time) []int {
	scratch = n.dyn.Neighbors(from, scratch[:0])
	for _, to := range scratch {
		n.SendBeaconAt(from, to, b, at)
	}
	return scratch
}

// Peek implements sim.Source: the earliest pending delivery deadline of the
// shard, or +Inf when none.
func (n *Network) Peek(shard int) sim.Time { return n.shards[shard].peek() }

// FireNext implements sim.Source: deliver the shard's earliest beacon. The
// receiver is owned by this shard, so the handler chain (estimate samples,
// the algorithm's per-receiver register) writes only shard-owned state.
func (n *Network) FireNext(shard int, now sim.Time) {
	sh := &n.shards[shard]
	m := sh.root()
	from, to := int(m.from), int(m.to)
	b, d := m.payload, m.delivery(now)
	sh.pop()
	if n.handler == nil || !n.dyn.Sees(to, from) {
		sh.dropped++
		return
	}
	n.handler.OnBeacon(to, from, b, d)
}

// Flush implements sim.Source: fold every outbox staged for this shard into
// its queue, in sender-shard order. The insertion order does not affect
// delivery order — the heap sorts by the content key — it only has to be
// deterministic for the pooled slot assignment.
func (n *Network) Flush(shard int) {
	dst := &n.shards[shard]
	for g := range n.shards {
		staged := n.shards[g].out[shard]
		for i := range staged {
			dst.push(staged[i])
		}
		n.shards[g].out[shard] = staged[:0]
	}
}

// controlQueue is the Network's serial-source face for control deliveries:
// the same receiver-sharded pooled queue as beacons, but registered with
// sim.Engine.AddSerialSource so every control fires one at a time in a
// serial context (handlers schedule global retry timers).
type controlQueue Network

// Peek implements sim.Source: the earliest pending control deadline of the
// shard, or +Inf when none.
func (q *controlQueue) Peek(shard int) sim.Time { return q.ctlShards[shard].peek() }

// FireNext implements sim.Source: deliver the shard's earliest control.
// Always invoked on the engine's serial path.
func (q *controlQueue) FireNext(shard int, now sim.Time) {
	n := (*Network)(q)
	sh := &q.ctlShards[shard]
	c := sh.root()
	from, to := int(c.from), int(c.to)
	payload, d := c.payload, c.delivery(now)
	sh.pop()
	if n.handler == nil || !n.dyn.Sees(to, from) {
		n.shards[to%len(n.shards)].dropped++
		return
	}
	n.handler.OnControl(to, from, payload, d)
}

// Flush implements sim.Source: controls are never staged (SendControl panics
// inside windows), so there is nothing to fold.
func (q *controlQueue) Flush(int) {}
