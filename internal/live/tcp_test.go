package live

import (
	"math"
	"net"
	"testing"
	"time"

	"repro/internal/transport"
)

// TestTwoProcessRingOverTCP splits a 4-ring across two clusters (stand-ins
// for two OS processes) peered over loopback TCP: nodes 0–1 in one, 2–3 in
// the other. Every node has one local and one remote neighbor, so the test
// passes only if beacons cross the wire in both directions.
func TestTwoProcessRingOverTCP(t *testing.T) {
	base := Config{
		N: 4, Edges: ringEdges(4),
		Tick: 0.05, BeaconInterval: 0.25,
		TimeScale: 10 * time.Millisecond,
	}
	cfgA, cfgB := base, base
	cfgA.Owned = []int{0, 1}
	cfgB.Owned = []int{2, 3}
	a, err := NewCluster(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCluster(cfgB)
	if err != nil {
		t.Fatal(err)
	}

	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lnA.Close()
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lnB.Close()
	go a.ServePeers(lnA)
	go b.ServePeers(lnB)

	if _, err := a.ConnectPeer(lnB.Addr().String(), []int{2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ConnectPeer(lnA.Addr().String(), []int{0, 1}); err != nil {
		t.Fatal(err)
	}

	a.Start()
	b.Start()
	defer b.Stop()
	defer a.Stop()

	// Wait until every node holds samples from both neighbors — one of which
	// can only have arrived over TCP.
	deadline := time.Now().Add(5 * time.Second)
	for {
		done := true
		for _, c := range []*Cluster{a, b} {
			for _, s := range c.Snapshots() {
				if s.Samples < 2 {
					done = false
				}
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("nodes never heard both neighbors: A=%+v B=%+v", a.Snapshots(), b.Snapshots())
		}
		time.Sleep(10 * time.Millisecond)
	}

	if err := a.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := b.Stop(); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*Cluster{"a": a, "b": b} {
		if st := c.Stats(); st.Unrouted != 0 {
			t.Fatalf("cluster %s dropped %d unrouted envelopes", name, st.Unrouted)
		}
	}
}

// TestConnectPeerRejectsMismatch pins the hello handshake: a peer configured
// for a different network size must be refused at connect time.
func TestConnectPeerRejectsMismatch(t *testing.T) {
	big, err := NewCluster(Config{N: 8, Edges: ringEdges(8)})
	if err != nil {
		t.Fatal(err)
	}
	small, err := NewCluster(Config{N: 4, Edges: ringEdges(4)})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go big.ServePeers(ln)
	if _, err := small.ConnectPeer(ln.Addr().String(), []int{0}); err == nil {
		t.Fatal("handshake accepted peers configured for different network sizes")
	}
}

// TestPeerBoundaryRejectsHostileFrames plays a raw TCP peer that completes
// the hello exchange and then sends one frame of each hostile kind: a sender
// id far outside [0, N) (to a hosted node and to one another process hosts),
// a sender that is not a neighbour of the addressee, and a non-finite L, M,
// SentAt and MinTransit. Every one must be refused and counted, no node's
// max estimate may leave the finite range, and no node may hold more
// estimate samples than it has neighbours. A well-formed frame claiming an
// absurd minimum transit is admitted, but credited at most the local link's
// Delay−Uncertainty.
func TestPeerBoundaryRejectsHostileFrames(t *testing.T) {
	const n = 4
	c, err := NewCluster(Config{
		N: n, Edges: ringEdges(n), Owned: []int{0, 1, 2},
		TimeScale: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go c.ServePeers(ln)
	c.Start()
	defer c.Stop()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := transport.WriteWire(conn, transport.HelloMsg(n)); err != nil {
		t.Fatal(err)
	}
	if _, err := transport.ReadWire(conn); err != nil {
		t.Fatal(err)
	}
	ok := transport.Beacon{L: 1, M: 1}
	// Node 0's neighbours in the 4-ring are 1 and 3.
	frames := []transport.WireMsg{
		transport.BeaconMsg(1, 0, 1, 1e9, ok), // admitted; transit credit capped
		transport.BeaconMsg(math.MaxUint32, 0, 1, 0, ok),
		transport.BeaconMsg(n, 3, 1, 0, ok), // node 3 is hosted elsewhere
		transport.BeaconMsg(2, 0, 1, 0, ok),
		transport.BeaconMsg(1, 0, 1, 0, transport.Beacon{L: math.NaN(), M: 1}),
		transport.BeaconMsg(3, 0, 1, 0, transport.Beacon{L: 1, M: math.Inf(1)}),
		transport.BeaconMsg(1, 0, math.Inf(-1), 0, ok),
		transport.BeaconMsg(3, 0, 1, math.NaN(), ok),
	}
	const hostile = 7
	for _, m := range frames {
		if err := transport.WriteWire(conn, m); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Rejected < hostile {
		if time.Now().After(deadline) {
			t.Fatalf("rejected %d frames, want %d", c.Stats().Rejected, hostile)
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond) // let node 0 apply the admitted frame
	if got := c.Stats().Rejected; got != hostile {
		t.Errorf("rejected %d frames, want %d", got, hostile)
	}
	for _, s := range c.Snapshots() {
		if math.IsNaN(s.M) || math.IsInf(s.M, 0) || s.M > 1e6 {
			t.Errorf("node %d max estimate %v: a peer frame leaked into the flood", s.Node, s.M)
		}
		if s.Samples > 2 {
			t.Errorf("node %d holds %d samples, more than its 2 neighbours", s.Node, s.Samples)
		}
	}
}
