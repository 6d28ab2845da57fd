// Package transport delivers messages over the dynamic estimate graph with
// bounded, adversary-controlled delays. Two kinds of traffic exist in the
// reproduced system: periodic beacons (carrying logical-clock values and max
// estimates, Section 4.2) and explicit control messages (the edge-insertion
// handshake of Listing 1).
package transport

import (
	"math"
	"slices"
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
// (P = any). Records are recycled through the queue's free list, so the
// steady-state send/deliver path allocates nothing. Fields are packed to
// keep the record at 56 bytes for both payloads — int32 ids, uint32 seq and
// the int32 bucket link fill the first 16 bytes, then three float64 times
// and a 16-byte payload — in-flight slabs are a top-line memory consumer at
// N=10⁷.
type rec[P any] struct {
	from, to int32
	// seq is the sender's per-class send counter, the last tie-break of the
	// content key: it preserves FIFO among same-(from,to) same-deadline
	// messages and — unlike a global sequence — is identical at every shard
	// count. uint32 wraps after 4.3·10⁹ sends per sender, orders of
	// magnitude beyond any run, and a wrap could only reorder same-deadline
	// same-pair messages.
	seq uint32
	// next links the record into its calendar bucket's list (−1 ends the
	// list). It is meaningless while the record is active or free.
	next       int32
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

// perBucket is the calendar's target load: the bucket width is this many
// mean deadline separations, and the bucket count the pending population
// over it, so a bucket holds a few records and one year (width × count)
// spans the pending deadlines.
const perBucket = 4

// queue is a pooled deadline queue in the shape of a calendar queue (Brown,
// CACM 1988): a record slab, a free list of recycled slots, and B = 2^k
// buckets of width w, each an unsorted list of slots linked through
// rec.next. A record due at d belongs to day ⌊d/w⌋ and sits in bucket
// day mod B. The earliest pending day is the active one: its records leave
// their bucket and are kept in act, sorted by the content key, so pop takes
// the tail of act and only the next day's bucket is ever sorted. Message
// delays are bounded (the model's [T−U, T] window), so pending deadlines
// crowd into a short span just ahead of the clock, and push and pop cost
// O(1) expected instead of a heap's O(log n).
//
// Invariant while n > 0: act holds exactly the pending records of day cur
// (it is non-empty), and every listed record is due on a later day.
//
// Width rule: w and B are re-derived from the pending records whenever
// their count doubles or halves (see rederive), so the calendar follows the
// traffic rather than a configured time scale. B is about n/perBucket and
// w is perBucket mean separations of the deadlines at or below the mean
// deadline, so a bucket holds a few records — enough that sorting a day is
// a handful of comparisons, few enough that empty buckets stay rare — and
// one year (B·w) spans the dense front of the pending deadlines. A
// far-future outlier neither stretches the width nor adds buckets: it
// waits in its bucket, skipped because its day has not come, until a
// one-year scan finds nothing earlier and a re-derive jumps to it.
type queue[P any] struct {
	msgs []rec[P] // pooled record slab
	free []int32  // recycled slots
	head []int32  // first slot of each bucket's list, −1 when empty
	// act is the active day's slots, sorted by the content key, latest
	// first.
	act []int32
	// cur is the active day; invW = 1/w maps a deadline to its day.
	cur  int64
	invW float64
	// n counts the pending records; lo and hi bound it between re-derives.
	n, lo, hi int
}

// day returns the calendar day of deadline d. It is non-decreasing in d,
// which is all the ordering relies on: clamping keeps it a valid int64 for
// any deadline, and a degenerate width (invW = 0, before the first spread
// is measured) simply puts every record on one day.
func (q *queue[P]) day(d sim.Time) int64 {
	const limit = 1 << 62
	f := math.Floor(d * q.invW)
	if !(f < limit) {
		return limit
	}
	if f < -limit {
		return -limit
	}
	return int64(f)
}

// link prepends slot to the bucket of day.
func (q *queue[P]) link(slot int32, day int64) {
	b := day & int64(len(q.head)-1)
	q.msgs[slot].next = q.head[b]
	q.head[b] = slot
}

// peek returns the earliest pending deadline, or +Inf when none.
func (q *queue[P]) peek() sim.Time {
	if len(q.act) == 0 {
		return math.Inf(1)
	}
	return q.msgs[q.act[len(q.act)-1]].deadline
}

// push inserts a record, taking a slot from the free list and growing the
// slab only when the pool is dry. A record due earlier than the active day
// (or into an empty queue) takes over as the active day, the old active
// records returning to their bucket; one due later is linked into its
// bucket unsorted; one due on the active day goes into act by binary
// insertion.
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
	q.n++
	d := q.day(r.deadline)
	switch {
	case q.n == 1 || d < q.cur:
		for _, s := range q.act {
			q.link(s, q.cur)
		}
		q.cur = d
		q.act = append(q.act[:0], slot)
	case d > q.cur:
		q.link(slot, d)
	default:
		i, _ := slices.BinarySearchFunc(q.act, slot, q.latestFirst)
		q.act = slices.Insert(q.act, i, slot)
	}
	if q.n > q.hi {
		q.rederive()
	}
}

// root returns the earliest record; it stays valid until pop.
func (q *queue[P]) root() *rec[P] { return &q.msgs[q.act[len(q.act)-1]] }

// pop removes the earliest record and recycles its slot with the payload
// cleared, so a released control drops its reference and a handler that
// sends again may reuse the slot. Callers read the record through root
// first. Emptying the active day activates the next one.
func (q *queue[P]) pop() {
	l := len(q.act) - 1
	slot := q.act[l]
	q.act = q.act[:l]
	var zero P
	q.msgs[slot].payload = zero
	q.free = append(q.free, slot)
	q.n--
	switch {
	case q.n < q.lo:
		q.rederive()
	case l == 0 && q.n > 0:
		q.advance()
	}
}

// advance activates the earliest pending day after the emptied active one.
// It walks at most one year of buckets; finding only later-year records
// there — a far-future outlier, or a width the traffic has outgrown — it
// re-derives the calendar, which costs the same O(n + B) as a direct search
// for the earliest day and also re-fits the width.
func (q *queue[P]) advance() {
	for range q.head {
		q.cur++
		if q.gather() {
			return
		}
	}
	q.rederive()
}

// gather moves the records of day cur out of its bucket into act and sorts
// them by the content key, latest first. It reports whether any were due.
func (q *queue[P]) gather() bool {
	next := &q.head[q.cur&int64(len(q.head)-1)]
	for s := *next; s >= 0; s = *next {
		r := &q.msgs[s]
		if q.day(r.deadline) == q.cur {
			*next = r.next
			q.act = append(q.act, s)
		} else {
			next = &r.next
		}
	}
	if len(q.act) == 0 {
		return false
	}
	slices.SortFunc(q.act, q.latestFirst)
	return true
}

// latestFirst orders slots by the content key, latest first: the order of
// act.
func (q *queue[P]) latestFirst(a, b int32) int {
	switch ra, rb := &q.msgs[a], &q.msgs[b]; {
	case rb.less(ra):
		return -1
	case ra.less(rb):
		return 1
	}
	return 0
}

// rederive re-sizes the calendar to the n pending records and re-files
// them, activating the earliest day. B is the least power of two with
// B·perBucket ≥ n, and w is perBucket times the mean separation of the
// deadlines at or below the mean deadline: the mean moves little for a
// few far outliers, and the records below it are the dense front the
// queue drains next. Deadlines without spread keep the previous width.
// The next re-derive happens once n has doubled or halved, so its
// O(n + B) cost is amortized O(1) per operation.
func (q *queue[P]) rederive() {
	// Chain every pending record into one list through next.
	all, lowest := int32(-1), math.Inf(1)
	for _, s := range q.act {
		q.msgs[s].next, all = all, s
		lowest = min(lowest, q.msgs[s].deadline)
	}
	// A day holds perBucket records on average, and rarely more than four
	// times that: sizing act for it once spares it a run of growth steps.
	q.act = slices.Grow(q.act[:0], 4*perBucket)
	for _, s := range q.head {
		for s >= 0 {
			r := &q.msgs[s]
			lowest = min(lowest, r.deadline)
			s, r.next, all = r.next, all, s
		}
	}

	// Offsets from the lowest deadline, so equal deadlines sum to exactly 0.
	sum := 0.0
	for s := all; s >= 0; s = q.msgs[s].next {
		sum += q.msgs[s].deadline - lowest
	}
	mean := sum / float64(q.n)
	below := 0
	for s := all; s >= 0; s = q.msgs[s].next {
		if q.msgs[s].deadline-lowest <= mean {
			below++
		}
	}
	if inv := float64(below) / (perBucket * mean); inv > 0 && !math.IsInf(inv, 1) {
		q.invW = inv
	}

	b := 1
	for b*perBucket < q.n {
		b <<= 1
	}
	if cap(q.head) >= b {
		q.head = q.head[:b]
	} else {
		q.head = make([]int32, b)
	}
	for i := range q.head {
		q.head[i] = -1
	}
	q.lo, q.hi = q.n/2, 2*q.n
	if q.n == 0 {
		return
	}
	for s := all; s >= 0; {
		r := &q.msgs[s]
		next := r.next
		q.link(s, q.day(r.deadline))
		s = next
	}
	q.cur = q.day(lowest)
	q.gather()
}

// slabBytes is the queue's retained storage (bucket heads, the active run
// and free entries are int32 slots).
func (q *queue[P]) slabBytes() uint64 {
	return uint64(cap(q.msgs))*uint64(unsafe.Sizeof(rec[P]{})) +
		uint64(cap(q.free)+cap(q.head)+cap(q.act))*4
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
// Both traffic classes live in pooled calendar queues of one kind (queue):
// beacons with P = Beacon in one queue per receiving shard, controls with
// P = any in a single queue. Beacons — the high-volume traffic — are
// registered with the engine as a sim.Source, which is what the sharded
// event drain parallelizes; their windows are bounded per receiving shard
// by topo.Dynamic.InTransit, and a cross-shard send inside a window lands
// at or after the window's end. Controls (handshake-rate) are registered as
// a *serial* source (sim.Engine.AddSerialSource): their handlers need
// serial-context rights — they schedule global retry timers and read
// cross-shard skew state — so each control fires one at a time at its own
// timestamp, but a pending control does not truncate parallel windows; the
// engine clamps the post-window clock back to it instead. Delivery order at
// equal deadlines is the content key (deadline, to, from, sender-seq) for
// both classes, with beacons due at the same instant delivered before
// controls (source registration order) and global events before either.
// With K = 1 that is the whole order. With K > 1 it holds per receiving
// shard for beacons and globally for controls, whose one queue never
// leaves the engine a tie between control shards to break.
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

	// ctl is the one pooled control queue, drained through the
	// controlQueue serial source. Controls are only pushed and popped in
	// serial contexts, so unlike the beacon queues it is not sharded and
	// needs no outboxes or counter padding.
	ctl queue[any]
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
// message and control slabs, their bucket heads, active runs, free lists
// and outboxes, plus the per-sender streams and sequence counters.
// Capacities only grow, from deterministic traffic, so for a fixed
// configuration the figure is exact and reproducible — the transport's line in the memory-diet regression gate
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
	total += n.ctl.slabBytes()
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
	n.ctl.push(c)
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
// delivery order — the queue sorts by the content key — it only has to be
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
// one pooled queue of the same kind as the beacon queues, registered with
// sim.Engine.AddSerialSource so every control fires one at a time in a
// serial context (handlers schedule global retry timers). All controls
// live on shard 0, so the engine's serial pick never has to break a
// deadline tie between control shards: equal-deadline controls fire in
// content-key order at every shard count.
type controlQueue Network

// Peek implements sim.Source: the earliest pending control deadline on
// shard 0, or +Inf when none or for any other shard.
func (q *controlQueue) Peek(shard int) sim.Time {
	if shard != 0 {
		return math.Inf(1)
	}
	return q.ctl.peek()
}

// FireNext implements sim.Source: deliver the earliest control. Always
// invoked on the engine's serial path, for shard 0.
func (q *controlQueue) FireNext(_ int, now sim.Time) {
	n := (*Network)(q)
	c := q.ctl.root()
	from, to := int(c.from), int(c.to)
	payload, d := c.payload, c.delivery(now)
	q.ctl.pop()
	if n.handler == nil || !n.dyn.Sees(to, from) {
		n.shards[to%len(n.shards)].dropped++
		return
	}
	n.handler.OnControl(to, from, payload, d)
}

// Flush implements sim.Source: controls are never staged (SendControl panics
// inside windows), so there is nothing to fold.
func (q *controlQueue) Flush(int) {}
