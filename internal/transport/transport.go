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

// message is one pooled in-flight beacon record. Records are recycled
// through a per-shard free list, so the steady-state send/deliver path
// allocates nothing. Fields are packed to keep the record at 56 bytes
// (int32 ids, uint32 seq, 4 bytes of padding) — in-flight slabs are a
// top-line memory consumer at N=10⁷.
type message struct {
	from, to int32
	// seq is the sender's beacon send counter, the last tie-break of the
	// content key: it preserves FIFO among same-(from,to) same-deadline
	// beacons and — unlike a global sequence — is identical at every shard
	// count. uint32 wraps after 4.3·10⁹ sends per sender, orders of
	// magnitude beyond any run, and a wrap could only reorder same-deadline
	// same-pair messages.
	seq        uint32
	deadline   sim.Time
	sentAt     sim.Time
	minTransit float64
	beacon     Beacon
}

// netShard owns the in-flight beacons addressed to the receivers it is
// keyed to (shard = receiver mod K). During a parallel window only the
// owning shard pops its heap; sends whose receiver lives on another shard
// are staged in out[recvShard] and folded at the window barrier, so cell
// (g, s) of the outbox matrix is written only by shard g in the drain phase
// and read only by shard s in the flush phase — never both at once.
type netShard struct {
	msgs          []message // pooled record slab
	free          []int32   // recycled slots
	heap          []int32   // 4-ary min-heap of slots, ordered by the content key
	out           [][]message
	sent, dropped uint64
	_             [2]uint64 // pad: shards bump counters concurrently
}

// Network schedules deliveries over a dynamic graph. A message is delivered
// only if the receiver still sees the sender at delivery time; this matches
// the model's guarantee that delivery is assured only while the estimate
// edge persists at the receiver.
//
// Beacons — the high-volume traffic — live in per-shard pooled deadline
// queues registered with the engine as a sim.Source, which is what the
// sharded event drain parallelizes. Control messages (handshake-rate) live
// in their own receiver-sharded pooled queues registered as a *serial*
// source (sim.Engine.AddSerialSource): their handlers need serial-context
// rights — they schedule global retry timers and read cross-shard skew
// state — so each control fires one at a time at its own timestamp, but a
// pending control no longer truncates parallel windows; the engine clamps
// the post-window clock back to it instead. Delivery order at equal
// deadlines is the content key (deadline, to, from, sender-seq) for both
// classes — deterministic and independent of the shard count — with beacons
// due at the same instant delivered before controls (source registration
// order) and global events before either.
//
// The slab/free-list/4-ary-heap machinery has the shape of internal/sim's
// event queue (see Engine) but only ever pops the root, so its records keep
// no heap position; the engine's do, because Cancel removes events at
// arbitrary positions.
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
	// through the controlQueue serial source.
	ctlShards []ctlShard
}

// control is one pooled in-flight control message.
type control struct {
	from, to   int32
	seq        uint32 // sender's control send counter (content-key tie-break)
	sentAt     sim.Time
	deadline   sim.Time
	minTransit float64
	payload    any
}

// ctlShard owns the in-flight controls addressed to the receivers it is
// keyed to (shard = receiver mod K). Controls are only pushed and popped in
// serial contexts, so unlike netShard it needs no outboxes or counter
// padding.
type ctlShard struct {
	ctls []control // pooled record slab
	free []int32   // recycled slots
	heap []int32   // 4-ary min-heap of slots, ordered by the content key
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
		n.shards[s].out = make([][]message, k)
	}
	base := rng.Uint64()
	n.streams = make([]sim.Stream, dyn.N())
	for u := range n.streams {
		n.streams[u] = sim.NewStream(base, u)
	}
	n.senderSeq = make([]uint32, dyn.N())
	n.ctlSeq = make([]uint32, dyn.N())
	n.ctlShards = make([]ctlShard, k)
	engine.AddSource(n)
	engine.AddSerialSource((*controlQueue)(n))
	return n
}

// SetHandler installs the traffic handler.
func (n *Network) SetHandler(h Handler) { n.handler = h }

// SetPolicy replaces the delay adversary (usable mid-run).
func (n *Network) SetPolicy(p DelayPolicy) { n.policy = p }

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
	const slotBytes = 4 // heap/free entries are int32 slots
	total := uint64(0)
	msgSize := uint64(unsafe.Sizeof(message{}))
	for s := range n.shards {
		sh := &n.shards[s]
		total += uint64(cap(sh.msgs)) * msgSize
		total += uint64(cap(sh.free)+cap(sh.heap)) * slotBytes
		for d := range sh.out {
			total += uint64(cap(sh.out[d])) * msgSize
		}
	}
	ctlSize := uint64(unsafe.Sizeof(control{}))
	for s := range n.ctlShards {
		sh := &n.ctlShards[s]
		total += uint64(cap(sh.ctls)) * ctlSize
		total += uint64(cap(sh.free)+cap(sh.heap)) * slotBytes
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
	m := message{
		from:       int32(from),
		to:         int32(to),
		seq:        n.senderSeq[from],
		sentAt:     at,
		minTransit: params.Delay - params.Uncertainty,
		beacon:     b,
	}
	n.senderSeq[from]++
	delay := n.policy.Draw(&n.streams[from], from, to, params)
	if delay < m.minTransit {
		delay = m.minTransit
	}
	if delay > params.Delay {
		delay = params.Delay
	}
	m.deadline = at + delay
	dst := to % k
	if n.engine.InWindow() && dst != from%k {
		// Cross-shard send inside a window: stage for the barrier fold. The
		// deadline is ≥ window-start + lookahead ≥ window-end (lookahead is
		// the min link transit), so deferring the push past the window can
		// never skip a due delivery.
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
	minTransit := params.Delay - params.Uncertainty
	delay := n.policy.Draw(&n.streams[from], from, to, params)
	if delay < minTransit {
		delay = minTransit
	}
	if delay > params.Delay {
		delay = params.Delay
	}
	c := control{
		from:       int32(from),
		to:         int32(to),
		seq:        n.ctlSeq[from],
		sentAt:     at,
		deadline:   at + delay,
		minTransit: minTransit,
		payload:    payload,
	}
	n.ctlSeq[from]++
	n.ctlShards[to%len(n.ctlShards)].push(c)
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
func (n *Network) Peek(shard int) sim.Time {
	sh := &n.shards[shard]
	if len(sh.heap) == 0 {
		return math.Inf(1)
	}
	return sh.msgs[sh.heap[0]].deadline
}

// FireNext implements sim.Source: deliver the shard's earliest beacon. The
// receiver is owned by this shard, so the handler chain (estimate samples,
// the algorithm's per-receiver register) writes only shard-owned state.
func (n *Network) FireNext(shard int, now sim.Time) {
	sh := &n.shards[shard]
	slot := sh.heap[0]
	m := &sh.msgs[slot]
	// Copy out before releasing: the handler may send, reusing the record.
	from, to := int(m.from), int(m.to)
	b := m.beacon
	d := Delivery{
		From:       from,
		To:         to,
		SentAt:     m.sentAt,
		At:         now,
		MinTransit: m.minTransit,
	}
	sh.popRoot()
	sh.release(slot)
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
// the same receiver-sharded pooled-heap shape as beacons, but registered
// with sim.Engine.AddSerialSource so every control fires one at a time in a
// serial context (handlers schedule global retry timers).
type controlQueue Network

// Peek implements sim.Source: the earliest pending control deadline of the
// shard, or +Inf when none.
func (q *controlQueue) Peek(shard int) sim.Time {
	sh := &q.ctlShards[shard]
	if len(sh.heap) == 0 {
		return math.Inf(1)
	}
	return sh.ctls[sh.heap[0]].deadline
}

// FireNext implements sim.Source: deliver the shard's earliest control.
// Always invoked on the engine's serial path.
func (q *controlQueue) FireNext(shard int, now sim.Time) {
	n := (*Network)(q)
	sh := &q.ctlShards[shard]
	slot := sh.heap[0]
	c := &sh.ctls[slot]
	from, to := int(c.from), int(c.to)
	payload := c.payload
	d := Delivery{
		From:       from,
		To:         to,
		SentAt:     c.sentAt,
		At:         now,
		MinTransit: c.minTransit,
	}
	// Release before handling: dropping the payload reference frees boxed
	// controls, and the handler may send again, reusing the slot.
	c.payload = nil
	sh.popRoot()
	sh.release(slot)
	if n.handler == nil || !n.dyn.Sees(to, from) {
		n.shards[to%len(n.shards)].dropped++
		return
	}
	n.handler.OnControl(to, from, payload, d)
}

// Flush implements sim.Source: controls are never staged (SendControl panics
// inside windows), so there is nothing to fold.
func (q *controlQueue) Flush(int) {}

// push inserts a message into the shard's pooled deadline queue.
func (sh *netShard) push(m message) {
	slot := sh.alloc()
	sh.msgs[slot] = m
	sh.heap = append(sh.heap, slot)
	sh.siftUp(len(sh.heap) - 1)
}

// alloc takes a message slot from the free list, growing the slab only when
// the pool is dry.
func (sh *netShard) alloc() int32 {
	if l := len(sh.free); l > 0 {
		slot := sh.free[l-1]
		sh.free = sh.free[:l-1]
		return slot
	}
	sh.msgs = append(sh.msgs, message{})
	return int32(len(sh.msgs) - 1)
}

// release recycles a slot.
func (sh *netShard) release(slot int32) {
	sh.free = append(sh.free, slot)
}

// less orders slots by the content key (deadline, to, from, sender-seq):
// a total order over distinct messages that depends only on the messages
// themselves, so delivery order is identical at every shard count. Among
// same-pair ties the sender-seq keeps FIFO send order.
func (sh *netShard) less(a, b int32) bool {
	ma, mb := &sh.msgs[a], &sh.msgs[b]
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

func (sh *netShard) siftUp(i int) {
	h := sh.heap
	slot := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !sh.less(slot, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = slot
}

func (sh *netShard) siftDown(i int) {
	h := sh.heap
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
			if sh.less(h[j], h[best]) {
				best = j
			}
		}
		if !sh.less(h[best], slot) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = slot
}

// popRoot removes the earliest entry from the heap.
func (sh *netShard) popRoot() {
	l := len(sh.heap) - 1
	sh.heap[0] = sh.heap[l]
	sh.heap = sh.heap[:l]
	if l > 0 {
		sh.siftDown(0)
	}
}

// push inserts a control into the shard's pooled deadline queue.
func (sh *ctlShard) push(c control) {
	slot := sh.alloc()
	sh.ctls[slot] = c
	sh.heap = append(sh.heap, slot)
	sh.siftUp(len(sh.heap) - 1)
}

func (sh *ctlShard) alloc() int32 {
	if l := len(sh.free); l > 0 {
		slot := sh.free[l-1]
		sh.free = sh.free[:l-1]
		return slot
	}
	sh.ctls = append(sh.ctls, control{})
	return int32(len(sh.ctls) - 1)
}

func (sh *ctlShard) release(slot int32) {
	sh.free = append(sh.free, slot)
}

// less orders controls by the same content-key shape as beacons:
// (deadline, to, from, sender-ctl-seq).
func (sh *ctlShard) less(a, b int32) bool {
	ca, cb := &sh.ctls[a], &sh.ctls[b]
	if ca.deadline != cb.deadline {
		return ca.deadline < cb.deadline
	}
	if ca.to != cb.to {
		return ca.to < cb.to
	}
	if ca.from != cb.from {
		return ca.from < cb.from
	}
	return ca.seq < cb.seq
}

func (sh *ctlShard) siftUp(i int) {
	h := sh.heap
	slot := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !sh.less(slot, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = slot
}

func (sh *ctlShard) siftDown(i int) {
	h := sh.heap
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
			if sh.less(h[j], h[best]) {
				best = j
			}
		}
		if !sh.less(h[best], slot) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = slot
}

// popRoot removes the earliest entry from the heap.
func (sh *ctlShard) popRoot() {
	l := len(sh.heap) - 1
	sh.heap[0] = sh.heap[l]
	sh.heap = sh.heap[:l]
	if l > 0 {
		sh.siftDown(0)
	}
}
