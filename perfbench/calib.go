package main

import (
	"container/heap"
	"math/rand/v2"
)

// refKernel is a fixed computation owned by the benchmark, so it is the
// same on every commit measured: a small discrete-event simulation of its
// own. Events for the nodes of a ring are allocated one by one and kept in
// a container/heap queue; handling one reads and writes the node's and its
// neighbours' state. That is the make-up of a simulator unit — an event
// heap, scattered per-node state, garbage for the collector — at 6–9 ms a
// run on one core of a 2-vCPU Xeon VM.
//
// The end-to-end costs are wall times in multiples of its wall time,
// measured right after each operation: whatever slows the host for a while
// (a neighbour on the core, a drop in clock speed, another process in the
// machine) slows both, and the ratio keeps what the program itself costs.
type refKernel struct {
	clock, rate []float64
	queue       refQueue
	rng         *rand.Rand
}

const (
	refNodes  = 1 << 14
	refEvents = 1 << 14 // handled in one run
)

type refEvent struct {
	t    float64
	node int32
}

type refQueue []*refEvent

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].t < q[j].t }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

func newRefKernel() *refKernel {
	k := &refKernel{
		clock: make([]float64, refNodes),
		rate:  make([]float64, refNodes),
		rng:   rand.New(rand.NewPCG(1, 2)),
	}
	for u := range k.rate {
		k.rate[u] = 1 + k.rng.Float64()*1e-3
		heap.Push(&k.queue, &refEvent{t: k.rng.Float64(), node: int32(u)})
	}
	return k
}

// run handles events events, refEvents for one whole run of the kernel,
// and returns a checksum of the clocks.
func (k *refKernel) run(events int) float64 {
	sum := 0.0
	for i := 0; i < events; i++ {
		e := heap.Pop(&k.queue).(*refEvent)
		u := int(e.node)
		l, r := k.clock[(u+refNodes-1)%refNodes], k.clock[(u+1)%refNodes]
		c := k.clock[u] + k.rate[u]*1e-3
		if m := (l + r) / 2; m > c {
			c += (m - c) / 2
		}
		k.clock[u] = c
		sum += c
		// The next event is at a random node, so the heap and the state are
		// touched all over, as a simulator's beacons are.
		heap.Push(&k.queue, &refEvent{t: e.t + 0.5 + k.rng.Float64(), node: int32(k.rng.IntN(refNodes))})
	}
	return sum
}
