package transport

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refRec is one entry of the reference model: the content key plus the id
// the pushed record carries in its payload.
type refRec struct {
	deadline float64
	to, from int32
	seq      uint32
	id       float64
}

func cmpRef(a, b refRec) int {
	return cmp.Or(
		cmp.Compare(a.deadline, b.deadline),
		cmp.Compare(a.to, b.to),
		cmp.Compare(a.from, b.from),
		cmp.Compare(a.seq, b.seq),
	)
}

// queueHarness drives a queue[Beacon] and a sorted-slice reference in
// lockstep: every pop must return the reference's minimum, and the
// calendar's structural invariant is checked after every operation.
type queueHarness struct {
	t    testing.TB
	q    queue[Beacon]
	ref  []refRec // sorted by the content key
	seq  map[[2]int32]uint32
	now  float64 // deadline of the last pop
	ids  float64
	peak int
}

func newQueueHarness(t testing.TB) *queueHarness {
	return &queueHarness{t: t, seq: map[[2]int32]uint32{}}
}

// push sends one record from → to due at deadline. The per-pair sequence
// keeps content keys distinct, as the transport's per-sender counters do.
func (h *queueHarness) push(deadline float64, from, to int32) {
	pair := [2]int32{from, to}
	s := h.seq[pair]
	h.seq[pair] = s + 1
	h.ids++
	r := refRec{deadline: deadline, to: to, from: from, seq: s, id: h.ids}
	h.q.push(rec[Beacon]{from: from, to: to, seq: s, deadline: deadline, payload: Beacon{L: h.ids}})
	i, _ := slices.BinarySearchFunc(h.ref, r, cmpRef)
	h.ref = slices.Insert(h.ref, i, r)
	h.peak = max(h.peak, len(h.ref))
	h.check()
}

// pop removes the earliest record from both and compares them.
func (h *queueHarness) pop() {
	h.t.Helper()
	want := h.ref[0]
	h.ref = h.ref[1:]
	m := h.q.root()
	got := refRec{deadline: m.deadline, to: m.to, from: m.from, seq: m.seq, id: m.payload.L}
	h.q.pop()
	if got != want {
		h.t.Fatalf("pop returned %+v, reference %+v", got, want)
	}
	h.now = got.deadline
	h.check()
}

// check compares the head with the reference and verifies the calendar
// invariant: act holds exactly the records of day cur, sorted latest first,
// and every listed record sits in its day's bucket on a later day.
func (h *queueHarness) check() {
	h.t.Helper()
	q := &h.q
	want := math.Inf(1)
	if len(h.ref) > 0 {
		want = h.ref[0].deadline
	}
	if got := q.peek(); got != want {
		h.t.Fatalf("peek = %v, reference %v", got, want)
	}
	if q.n != len(h.ref) {
		h.t.Fatalf("n = %d, reference holds %d", q.n, len(h.ref))
	}
	if q.n == 0 {
		if len(q.act) != 0 {
			h.t.Fatalf("empty queue keeps %d active records", len(q.act))
		}
	} else if len(q.act) == 0 {
		h.t.Fatal("pending records but no active day")
	}
	if b := len(q.head); q.n > 0 && b&(b-1) != 0 {
		h.t.Fatalf("bucket count %d is not a power of two", b)
	}
	for i, s := range q.act {
		if d := q.day(q.msgs[s].deadline); d != q.cur {
			h.t.Fatalf("active record %d on day %d, active day %d", s, d, q.cur)
		}
		if i > 0 && !q.msgs[s].less(&q.msgs[q.act[i-1]]) {
			h.t.Fatalf("active run not sorted latest first at %d", i)
		}
	}
	listed := 0
	for b, s := range q.head {
		for ; s >= 0; s = q.msgs[s].next {
			d := q.day(q.msgs[s].deadline)
			if d <= q.cur || int(d&int64(len(q.head)-1)) != b {
				h.t.Fatalf("record %d on day %d filed in bucket %d (active day %d, %d buckets)", s, d, b, q.cur, len(q.head))
			}
			listed++
		}
	}
	if listed+len(q.act) != q.n {
		h.t.Fatalf("%d listed + %d active records, n = %d", listed, len(q.act), q.n)
	}
}

func (h *queueHarness) drain() {
	for len(h.ref) > 0 {
		h.pop()
	}
}

// TestQueueDifferential runs the calendar queue against the sorted-slice
// reference on traffic shaped to reach each of its paths.
func TestQueueDifferential(t *testing.T) {
	const delay = 0.2 // the typical transit; records are due within it
	cases := []struct {
		name string
		// next pushes one record (from the harness clock h.now).
		next func(h *queueHarness, rng *rand.Rand)
	}{
		{"continuous", func(h *queueHarness, rng *rand.Rand) {
			h.push(h.now+delay*(0.5+rng.Float64()/2), rng.Int31n(64), rng.Int31n(64))
		}},
		{"ties on every key field", func(h *queueHarness, rng *rand.Rand) {
			// A coarse deadline grid and three ids: most records tie on the
			// deadline, many on (deadline, to) and (deadline, to, from), and
			// same-pair ties differ only by sequence.
			h.push(h.now+delay*float64(1+rng.Intn(3))/3, rng.Int31n(3), rng.Int31n(3))
		}},
		{"zero transit into the active day", func(h *queueHarness, rng *rand.Rand) {
			if rng.Intn(2) == 0 {
				h.push(h.now, rng.Int31n(4), rng.Int31n(4))
				return
			}
			h.push(h.now+delay*rng.Float64(), rng.Int31n(4), rng.Int31n(4))
		}},
		{"earlier than the head", func(h *queueHarness, rng *rand.Rand) {
			if head := h.q.peek(); rng.Intn(3) == 0 && !math.IsInf(head, 1) {
				h.push(h.now+(head-h.now)*rng.Float64(), rng.Int31n(8), rng.Int31n(8))
				return
			}
			h.push(h.now+delay*(1+rng.Float64()), rng.Int31n(8), rng.Int31n(8))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				h := newQueueHarness(t)
				// Fill, hold a steady population, then drain: the bucket
				// count re-derives on the way up and down.
				for i := 0; i < 3000; i++ {
					tc.next(h, rng)
					if i >= 1000 || rng.Intn(4) == 0 {
						h.pop()
					}
				}
				h.drain()
			}
		})
	}
}

// TestQueueFarFutureOutlier parks records 10³ typical delays out among
// steady traffic: they must come out last, in order, and neither widen the
// buckets nor grow storage beyond O(pending).
func TestQueueFarFutureOutlier(t *testing.T) {
	const delay = 0.2
	rng := rand.New(rand.NewSource(1))
	h := newQueueHarness(t)
	for i := 0; i < 4; i++ {
		h.push(1000*delay+float64(i), 0, 1)
	}
	for i := 0; i < 4000; i++ {
		h.push(h.now+delay*(0.5+rng.Float64()/2), rng.Int31n(32), rng.Int31n(32))
		if i >= 500 {
			h.pop()
		}
	}
	// The width is fitted to the dense front, not to the outliers' span.
	if w := 1 / h.q.invW; w > delay {
		t.Fatalf("bucket width %v exceeds the typical delay %v", w, delay)
	}
	limit := uint64(h.peak) * 2 * (56 + 3*4)
	if got := h.q.slabBytes(); got > limit {
		t.Fatalf("slabBytes %d for peak %d pending, bound %d", got, h.peak, limit)
	}
	h.drain()
	if h.now != 1000*delay+3 {
		t.Fatalf("last pop at %v, want the last outlier", h.now)
	}
}

// TestQueueDrainRefill empties the queue and refills it, also after jumps
// of the clock far beyond the calendar's year.
func TestQueueDrainRefill(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	h := newQueueHarness(t)
	for round := 0; round < 20; round++ {
		for i := rng.Intn(300); i >= 0; i-- {
			h.push(h.now+0.2*rng.Float64(), rng.Int31n(16), rng.Int31n(16))
		}
		h.drain()
		if !math.IsInf(h.q.peek(), 1) || h.q.n != 0 {
			t.Fatalf("round %d: drained queue reports head %v, %d pending", round, h.q.peek(), h.q.n)
		}
		h.now += float64(rng.Intn(3)) * 1e4
	}
}

// TestQueueBucketsFollowPopulation checks that the bucket count grows with
// the pending population and shrinks back once it drains.
func TestQueueBucketsFollowPopulation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := newQueueHarness(t)
	for i := 0; i < 8192; i++ {
		h.push(0.2*rng.Float64(), rng.Int31n(64), rng.Int31n(64))
	}
	if b := len(h.q.head); b*perBucket < 8192 || b*perBucket > 4*8192 {
		t.Fatalf("%d buckets for 8192 pending", b)
	}
	for len(h.ref) > 8 {
		h.pop()
	}
	if b := len(h.q.head); b*perBucket > 4*8 {
		t.Fatalf("%d buckets for 8 pending", b)
	}
	h.drain()
}

// FuzzQueue decodes push/pop scripts from bytes: a byte with the low bit
// clear pops (when anything is pending), otherwise it pushes a record whose
// delay, sender and receiver come from its remaining bits — a small delay
// grid, so ties are common, and the top bit marks a far-future record.
// Scripts are cut at 1024 operations: the harness checks the whole
// calendar after each one.
func FuzzQueue(f *testing.F) {
	f.Add([]byte{1, 3, 5, 0, 7, 0, 0, 9})
	f.Add([]byte{255, 1, 1, 1, 0, 0, 3, 3, 0, 0, 0, 0})
	f.Add([]byte{17, 33, 65, 129, 0, 2, 4, 19, 21, 0, 0, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		h := newQueueHarness(t)
		for _, b := range script[:min(len(script), 1024)] {
			if b&1 == 0 {
				if len(h.ref) > 0 {
					h.pop()
				}
				continue
			}
			delay := float64(b>>1&7) * 0.05
			if b&0x80 != 0 {
				delay *= 1000
			}
			h.push(h.now+delay, int32(b>>4&3), int32(b>>5&1))
		}
		h.drain()
	})
}
