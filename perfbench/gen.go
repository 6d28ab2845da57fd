package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/netip"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/live"
)

// The open-loop generator: requests fall due as a Poisson process of the
// offered rate (seeded exponential gaps), whatever happened to the requests
// before them — independent users, none waiting for another's reply. The
// random gaps also keep the schedule from locking onto the daemon's 1 ms
// protocol tick, which with evenly spaced requests would make every run's
// latency depend on the phase the two happened to start in. Connection c
// serves the requests k ≡ c (mod conns) in order on one keep-alive socket,
// so a slow reply delays the requests queued behind it and that delay is
// charged to them: latency is measured from the due time, never from the
// send. A missed schedule is kept, not reset, so a stall shows up as
// backlog and latency rather than as quietly lowered load.

// endpoint is one query the generator issues, in round-robin order.
type endpoint uint8

const (
	epHealthz endpoint = iota
	epClock
	epClockNode
	epSkew
	epLegality
	epStats
	numEndpoints
)

var endpointNames = [numEndpoints]string{"healthz", "clock", "clock_node", "skew", "legality", "stats"}

var endpointPaths = [numEndpoints]string{"/healthz", "/v1/clock", "/v1/clock?node=", "/v1/skew", "/v1/legality", "/v1/stats"}

// sample is one request's record; times are nanoseconds from phase start.
type sample struct {
	due   int64 // when the schedule said to send it
	ready int64 // when its connection was free to send it
	sent  int64
	done  int64 // reply read and checked
	ep    endpoint
	ok    bool
}

// latency is the request's latency from its due time.
func (s sample) latency() int64 { return s.done - s.due }

// late is how late the generator itself sent the request: the gap between
// when the request could first go out (due, or its connection freeing up)
// and when it did.
func (s sample) late() int64 { return s.sent - max(s.due, s.ready) }

// phase is one stretch of load at a fixed offered rate.
type phase struct {
	rate     float64
	dur      time.Duration
	samples  []sample // sorted by due time
	unsent   []int64  // due times of requests that never went out
	failures []error
}

// generator drives one daemon over a fixed set of keep-alive connections.
type generator struct {
	addr  string
	conns int
	nodes []int // seeded node ids for /v1/clock?node=, cycled
	n     int   // daemon node count
	rng   *rand.Rand
	// lastHW[c][i] is the last hardware clock connection c saw for node i:
	// one connection's requests are sequential, so its reads are ordered.
	lastHW [][]float64
	socks  []*conn
}

func newGenerator(addr string, conns, n int, seed int64) *generator {
	rng := rand.New(rand.NewPCG(uint64(seed), 0xc10c))
	g := &generator{addr: addr, conns: conns, n: n, nodes: make([]int, 1024), rng: rng}
	for i := range g.nodes {
		g.nodes[i] = rng.IntN(n)
	}
	g.lastHW = make([][]float64, conns)
	g.socks = make([]*conn, conns)
	for c := range g.lastHW {
		g.lastHW[c] = make([]float64, n)
	}
	return g
}

func (g *generator) close() {
	for _, s := range g.socks {
		if s != nil {
			s.close()
		}
	}
}

// requestTimeout bounds one request; a reply later than this is a failure.
const requestTimeout = 2 * time.Second

// run offers rate requests per second for dur, then lets each connection
// finish the requests that fell due within dur for up to drain more.
func (g *generator) run(rate float64, dur, drain time.Duration) *phase {
	p := &phase{rate: rate, dur: dur}
	var dues []int64
	for t := g.rng.ExpFloat64() / rate; t < dur.Seconds(); t += g.rng.ExpFloat64() / rate {
		dues = append(dues, int64(t*1e9))
	}
	per := make([]*phase, g.conns)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < g.conns; c++ {
		per[c] = &phase{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			g.connLoop(c, per[c], start, dues, dur+drain)
		}(c)
	}
	wg.Wait()
	for _, q := range per {
		p.samples = append(p.samples, q.samples...)
		p.unsent = append(p.unsent, q.unsent...)
		p.failures = append(p.failures, q.failures...)
	}
	sort.Slice(p.samples, func(i, j int) bool { return p.samples[i].due < p.samples[j].due })
	return p
}

func (g *generator) connLoop(c int, p *phase, start time.Time, dues []int64, stop time.Duration) {
	// Go's timers wake a sleeper up to a millisecond late, which at these
	// rates would be most of a request's latency. The connection's
	// goroutine sleeps on its own OS thread instead, with the thread's
	// timer slack cut to 1 µs. The thread is never unlocked, so it exits
	// with the goroutine and the changed slack goes with it.
	runtime.LockOSThread()
	const prSetTimerslack = 29
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1000, 0)

	since := func() int64 { return int64(time.Since(start)) }
	ready := int64(0)
	for k := c; k < len(dues); k += g.conns {
		due := dues[k]
		if now := since(); now >= int64(stop) {
			// Out of drain time: what is left never goes out.
			p.unsent = append(p.unsent, due)
			continue
		} else if due > now {
			ts := syscall.NsecToTimespec(due - now)
			syscall.Nanosleep(&ts, nil)
		}
		// Round robin over the endpoints, shifted by one each round so that
		// every connection cycles through all of them.
		ep := endpoint((k + k/int(numEndpoints)) % int(numEndpoints))
		s := sample{due: due, ready: ready, sent: since(), ep: ep}
		node := g.nodes[(k/int(numEndpoints))%len(g.nodes)]
		body, err := g.do(c, s.ep, node)
		s.done = since()
		if err == nil {
			err = g.checkBody(c, s.ep, node, body)
		}
		ready = since()
		s.ok = err == nil
		if err != nil && len(p.failures) < 4 {
			p.failures = append(p.failures, fmt.Errorf("%s: %w", endpointNames[s.ep], err))
		}
		p.samples = append(p.samples, s)
	}
}

// do sends one request on connection c and returns the reply body.
func (g *generator) do(c int, ep endpoint, node int) ([]byte, error) {
	s := g.socks[c]
	if s == nil {
		var err error
		if s, err = dial(g.addr); err != nil {
			return nil, err
		}
		g.socks[c] = s
	}
	path := endpointPaths[ep]
	if ep == epClockNode {
		path += strconv.Itoa(node)
	}
	body, err := s.roundTrip(path)
	if err != nil {
		// The socket's framing is unknown after a failure: start afresh.
		s.close()
		g.socks[c] = nil
	}
	return body, err
}

// conn is a blocking loopback socket driven with raw system calls from its
// connection's locked OS thread: a reply wakes the thread directly, with no
// netpoller hand-off between threads adding to the measured latency.
type conn struct {
	fd             int
	br             *bufio.Reader
	req, body, buf []byte
	replies        []reply
}

func dial(addr string) (*conn, error) {
	ap, err := netip.ParseAddrPort(addr)
	if err != nil {
		return nil, err
	}
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return nil, err
	}
	tv := syscall.NsecToTimeval(int64(requestTimeout))
	err = errors.Join(
		syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1),
		syscall.SetsockoptTimeval(fd, syscall.SOL_SOCKET, syscall.SO_RCVTIMEO, &tv),
		syscall.SetsockoptTimeval(fd, syscall.SOL_SOCKET, syscall.SO_SNDTIMEO, &tv),
		syscall.Connect(fd, &syscall.SockaddrInet4{Port: int(ap.Port()), Addr: ap.Addr().As4()}),
	)
	if err != nil {
		syscall.Close(fd)
		return nil, err
	}
	c := &conn{fd: fd}
	c.br = bufio.NewReaderSize(c, 16<<10)
	return c, nil
}

// Read implements io.Reader over the socket; a receive timeout
// (SO_RCVTIMEO) surfaces as EAGAIN.
func (c *conn) Read(p []byte) (int, error) {
	for {
		n, err := syscall.Read(c.fd, p)
		switch {
		case err == syscall.EINTR:
			continue
		case err == syscall.EAGAIN:
			return 0, errors.New("reply timed out")
		case err != nil:
			return 0, err
		case n == 0:
			return 0, io.EOF
		}
		return n, nil
	}
}

func (c *conn) write(b []byte) error {
	for len(b) > 0 {
		n, err := syscall.Write(c.fd, b)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return err
		}
		b = b[n:]
	}
	return nil
}

func (c *conn) close() { syscall.Close(c.fd) }

// appendGet appends one GET request for path to b.
func appendGet(b []byte, path string) []byte {
	return append(append(append(b, "GET "...), path...), " HTTP/1.1\r\nHost: gradsyncd\r\n\r\n"...)
}

// roundTrip sends one GET and reads the reply.
func (c *conn) roundTrip(path string) ([]byte, error) {
	c.req = appendGet(c.req[:0], path)
	if err := c.write(c.req); err != nil {
		return nil, err
	}
	return c.readReply()
}

// reply is one pipelined reply: its body, at buf[start:end] of the
// connection, or its error.
type reply struct {
	start, end int
	err        error
}

// pipeline sends the GETs for paths in one write, as HTTP/1.1 pipelining
// allows, and reads the replies in order into c.replies, their bodies copied
// into c.buf (both valid until the next call). A reply with a status other
// than 200 is framed like any other and fails alone; an error returned means
// the stream is lost and the replies after c.replies were not read.
func (c *conn) pipeline(paths []string) error {
	c.req = c.req[:0]
	for _, p := range paths {
		c.req = appendGet(c.req, p)
	}
	c.buf, c.replies = c.buf[:0], c.replies[:0]
	if err := c.write(c.req); err != nil {
		return err
	}
	for range paths {
		body, err := c.readReply()
		var se statusError
		if err != nil && !errors.As(err, &se) {
			return err
		}
		start := len(c.buf)
		c.buf = append(c.buf, body...)
		c.replies = append(c.replies, reply{start, len(c.buf), err})
	}
	return nil
}

// statusError is a complete reply whose status is not 200.
type statusError string

func (e statusError) Error() string { return "status " + string(e) }

// readReply reads one reply, which net/http frames with either a
// Content-Length or chunked encoding. The body is read into the connection's
// reused buffer and is valid until the next reply is read.
func (c *conn) readReply() ([]byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return nil, fmt.Errorf("bad status line %q", line)
	}
	status := string(line[9:12])
	length, chunked := -1, false
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return nil, err
		}
		if len(bytes.TrimSpace(line)) == 0 {
			break
		}
		k, v, _ := bytes.Cut(line, []byte(":"))
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(v)); err != nil {
				return nil, fmt.Errorf("bad Content-Length %q", v)
			}
		case bytes.EqualFold(k, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(v, []byte("chunked"))
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		for {
			line, err := c.br.ReadSlice('\n')
			if err != nil {
				return nil, err
			}
			n, err := strconv.ParseUint(string(bytes.TrimSpace(line)), 16, 31)
			if err != nil {
				return nil, fmt.Errorf("bad chunk size %q", line)
			}
			if err := c.readBody(int(n) + 2); err != nil { // chunk + CRLF
				return nil, err
			}
			c.body = c.body[:len(c.body)-2]
			if n == 0 {
				break
			}
		}
	case length >= 0:
		if err := c.readBody(length); err != nil {
			return nil, err
		}
	default:
		return nil, errors.New("reply without framing")
	}
	if status != "200" {
		return nil, statusError(status)
	}
	return c.body, nil
}

// readBody appends the next n bytes of the stream to c.body.
func (c *conn) readBody(n int) error {
	start := len(c.body)
	c.body = slices.Grow(c.body, n)[:start+n]
	_, err := io.ReadFull(c.br, c.body[start:])
	return err
}

// checkBody holds one reply to its endpoint's contract: the body parses,
// legality is legal, a node query returns that node, and no node's hardware
// clock goes backwards between two reads on one connection.
func (g *generator) checkBody(c int, ep endpoint, node int, body []byte) error {
	hw := func(s live.NodeSnapshot) error {
		if s.Node < 0 || s.Node >= g.n {
			return fmt.Errorf("node %d out of range", s.Node)
		}
		if s.HW < g.lastHW[c][s.Node] {
			return fmt.Errorf("node %d hw went back from %v to %v", s.Node, g.lastHW[c][s.Node], s.HW)
		}
		g.lastHW[c][s.Node] = s.HW
		return nil
	}
	switch ep {
	case epHealthz:
		var v struct {
			OK bool `json:"ok"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		if !v.OK {
			return errors.New("healthz not ok")
		}
	case epClock:
		var v struct {
			Nodes []live.NodeSnapshot `json:"nodes"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		if len(v.Nodes) != g.n {
			return fmt.Errorf("%d nodes, want %d", len(v.Nodes), g.n)
		}
		for _, s := range v.Nodes {
			if err := hw(s); err != nil {
				return err
			}
		}
	case epClockNode:
		var s live.NodeSnapshot
		if err := json.Unmarshal(body, &s); err != nil {
			return err
		}
		if s.Node != node {
			return fmt.Errorf("asked for node %d, got %d", node, s.Node)
		}
		return hw(s)
	case epSkew:
		var v live.SkewReport
		return json.Unmarshal(body, &v)
	case epLegality:
		var v live.LegalityReport
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		if !v.Legal {
			return fmt.Errorf("illegal: max local skew %v > bound %v", v.MaxLocalSkew, v.Bound)
		}
	case epStats:
		var v live.Stats
		return json.Unmarshal(body, &v)
	}
	return nil
}

// tailWindow is the number of consecutive requests a latency tail is read
// over. A run's tail is the median of its windows' tails: on a shared host
// a single stall of a few milliseconds lands in one window, while the
// ≥ minBeyond tail of a whole phase of 10⁴ requests is that stall.
const tailWindow = 250

// latencies returns the phase's latencies from the due time, in due order,
// in µs. A failed request misses any latency limit.
func latencies(p *phase) []float64 {
	lat := make([]float64, 0, len(p.samples))
	for _, s := range p.samples {
		l := s.latency()
		if !s.ok {
			l = max(l, int64(requestTimeout))
		}
		lat = append(lat, float64(l)/1e3)
	}
	return lat
}

// windowedTail returns the median over consecutive windows of n values of
// each window's tail (by the ≥ minBeyond rule), and the window count. A
// trailing partial window is dropped unless it is the only one.
func windowedTail(xs []float64, n int) (float64, int) {
	if len(xs) < n {
		return tailOf(xs).Value, 1
	}
	var tails []float64
	for i := 0; i+n <= len(xs); i += n {
		tails = append(tails, tailOf(xs[i:i+n]).Value)
	}
	return median(tails), len(tails)
}

// rungLimits are the pass conditions of one ladder rung.
type rungLimits struct {
	tailUs     float64 // windowed latency tail must stay under
	deliver    float64 // delivered/offered must reach this share
	genLateUs  float64 // the generator's own windowed lateness tail must stay under
	backlogTol float64 // backlog growth allowed, as a share of the rung's requests
}

// rungVerdict is the outcome of one rung.
type rungVerdict struct {
	rate      float64
	delivered float64 // completed within the rung, per second
	tailUs    float64 // windowed latency tail from the due time
	lateUs    float64 // windowed tail of the generator's own lateness
	backlog   [2]int  // requests due but unsent at mid-rung and at the end
	pass      bool
	invalid   bool // the generator fell behind: the rung measured nothing
	why       string
}

// judge applies the limits to one phase.
func judge(p *phase, lim rungLimits) rungVerdict {
	v := rungVerdict{rate: p.rate}
	end := int64(p.dur)
	late := make([]float64, 0, len(p.samples))
	done := 0
	for _, s := range p.samples {
		late = append(late, float64(s.late())/1e3)
		if s.ok && s.done <= end {
			done++
		}
	}
	v.delivered = float64(done) / p.dur.Seconds()
	v.tailUs, _ = windowedTail(latencies(p), tailWindow)
	v.lateUs, _ = windowedTail(late, tailWindow)
	v.backlog = [2]int{backlogAt(p, end/2), backlogAt(p, end)}
	offered := p.rate * p.dur.Seconds()
	switch {
	case v.lateUs > lim.genLateUs:
		v.invalid, v.why = true, fmt.Sprintf("generator late by %.0f µs", v.lateUs)
	case v.delivered < lim.deliver*p.rate:
		v.why = fmt.Sprintf("delivered %.0f/s of %.0f/s", v.delivered, p.rate)
	case float64(v.backlog[1]-v.backlog[0]) > max(2, lim.backlogTol*offered):
		v.why = fmt.Sprintf("backlog grew %d → %d", v.backlog[0], v.backlog[1])
	case v.tailUs > lim.tailUs:
		v.why = fmt.Sprintf("tail %.0f µs over %.0f µs", v.tailUs, lim.tailUs)
	default:
		v.pass = true
	}
	return v
}

// backlogAt counts the requests due by t that had not been sent at t.
func backlogAt(p *phase, t int64) int {
	n := 0
	for _, due := range p.unsent {
		if due <= t {
			n++
		}
	}
	for _, s := range p.samples {
		if s.due > t {
			break
		}
		if s.sent > t {
			n++
		}
	}
	return n
}

// ladderSearch bisects the ascending rates for the highest one that
// passes, taking capacity to be a threshold (a rate passes when every lower
// one does). It tries about log2(len(rates)) rungs, so each rung runs long
// enough to average out a shared host's second-scale noise, and only the
// last steps land near the knee — a walk up the ladder would give every rung
// below the knee a chance to end the search on one noisy verdict. An
// invalid rung counts as a failure. best is the verdict of the highest
// passing rung, the zero verdict when none passed.
func ladderSearch(rates []float64, try func(rate float64) rungVerdict) (best rungVerdict, steps []rungVerdict) {
	lo, hi := -1, len(rates) // rates[lo] passed, rates[hi] failed; both ends are sentinels
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		v := try(rates[mid])
		steps = append(steps, v)
		if v.pass {
			lo, best = mid, v
		} else {
			hi = mid
		}
	}
	return best, steps
}
