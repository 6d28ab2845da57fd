package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/live"
)

const (
	daemonN = 64
	// daemonTimescale is the real duration of one sim unit in the daemon,
	// ten times its 20 ms default: at the default a host stall of 50 ms is
	// 2.5 units without ticks or beacons, and on a 2-vCPU VM losing 10% of
	// its CPU time to the hypervisor the 64-ring broke its 2·S legality
	// bound under query load (max local skew 2.24 > 2). At 200 ms such a
	// stall is a quarter unit.
	daemonTimescale = "200ms"
	// fixedQPS is the offered rate of the latency phase, well below the
	// 5k–20k qps the ladder finds on a 2-vCPU Xeon VM as its host's load
	// varies.
	fixedQPS = 2000
	// daemonSetups is how often a run starts the daemon to time set-up.
	daemonSetups = 11
	// daemonWarm runs at fixedQPS before anything is measured.
	daemonWarm = 500 * time.Millisecond
	// idleWindow is how long a traced run watches the daemon with no
	// queries, to separate the protocol's own CPU from the serving cost.
	idleWindow = time.Second
	// ladderDrain is how long a rung's connections may keep sending the
	// requests that fell due within it; an overloaded rung leaves the rest
	// unsent, as backlog.
	ladderDrain = 250 * time.Millisecond
)

// ladderQPS are the offered rates of the capacity search.
// They grow by 5% a rung from fixedQPS, so the result resolves capacity
// to 5%.
var ladderQPS = func() []float64 {
	var rates []float64
	for r := float64(fixedQPS); r < 50000; r *= 1.05 {
		rates = append(rates, float64(int(r/10)*10))
	}
	return rates
}()

// sloLimits are a ladder rung's pass conditions: the windowed latency
// tail, timed from the due time, stays under 5 ms.
var sloLimits = rungLimits{tailUs: 5000, deliver: 0.95, genLateUs: 1000, backlogTol: 0.01}

// daemon is one running gradsyncd.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	done chan error
}

// startDaemon starts gradsyncd on a free loopback port and waits for its
// first 200 from /healthz.
func startDaemon(bin string) (*daemon, time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	ln.Close()
	t0 := time.Now()
	cmd := exec.Command(bin, "-topo", "ring", "-n", strconv.Itoa(daemonN), "-timescale", daemonTimescale, "-listen", addr)
	cmd.Stderr = os.Stderr
	// Should the benchmark itself be killed, the daemon goes with it. The
	// kernel sends this signal when the OS thread that forked the daemon
	// exits, and Go ends a thread whose goroutine exits while locked to it
	// (as the generator's connection goroutines do), so the forking
	// goroutine holds its own thread until the daemon has exited.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, addr: addr, done: make(chan error, 1)}
	started := make(chan error, 1)
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		if err := cmd.Start(); err != nil {
			started <- err
			return
		}
		started <- nil
		d.done <- cmd.Wait()
	}()
	if err := <-started; err != nil {
		return nil, 0, err
	}
	client := &http.Client{Timeout: time.Second}
	for deadline := t0.Add(20 * time.Second); time.Now().Before(deadline); {
		select {
		case err := <-d.done:
			return nil, 0, fmt.Errorf("gradsyncd exited during start: %v", err)
		default:
		}
		if resp, err := client.Get("http://" + addr + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	d.stop()
	return nil, 0, errors.New("gradsyncd did not answer /healthz within 20s")
}

// stop terminates the daemon and waits for it to exit.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(5 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

// cpu returns the daemon's user+system CPU time so far.
func (d *daemon) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are the
	// 14th and 15th fields of the whole line, in clock ticks.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	const clkTck = 100 // USER_HZ, fixed at 100 on Linux
	return time.Duration(ut+st) * time.Second / clkTck, nil
}

// rss returns the daemon's resident set size in bytes.
func (d *daemon) rss() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb * 1024, err
		}
	}
	return 0, errors.New("no VmRSS line")
}

// stats reads the daemon's /v1/stats.
func (d *daemon) stats() (live.Stats, error) {
	var st live.Stats
	resp, err := http.Get("http://" + d.addr + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// pipeBatch is how many requests the serving-cost phase sends in one
// write, and pipeGroup how many batches share one reference-kernel run: a
// group is about 30 ms of serving on a 2-vCPU Xeon VM.
// costWindow is the number of consecutive groups a cost tail is read over.
const (
	pipeBatch  = 64
	pipeGroup  = 8
	costWindow = 200
)

// servingCost keeps the daemon busy for dur with pipelined batches of
// queries on one connection, so that it serves back to back rather than
// waking for each request. After each batch a 1/pipeGroup share of the
// reference kernel runs, so a group's kernel time is sampled across the same
// stretch of time as its serving, and a hypervisor stealing a few
// milliseconds here and there hits both alike. Only the batches' sending and
// reading is timed; every reply is checked after its batch. It returns each
// group's wall time per query in reference-kernel runs and the whole timed
// wall time, and accounts every query in r.
func (g *generator) servingCost(dur time.Duration, ref *refKernel, r *report) ([]float64, time.Duration, error) {
	paths := make([]string, pipeBatch)
	eps := make([]endpoint, pipeBatch)
	nodes := make([]int, pipeBatch)
	var costs []float64
	var total time.Duration
	k := 0
	for deadline := time.Now().Add(dur); time.Now().Before(deadline); {
		var serve, kernel time.Duration
		for b := 0; b < pipeGroup; b++ {
			for i := range paths {
				eps[i] = endpoint((k + k/int(numEndpoints)) % int(numEndpoints))
				nodes[i] = g.nodes[(k/int(numEndpoints))%len(g.nodes)]
				paths[i] = endpointPaths[eps[i]]
				if eps[i] == epClockNode {
					paths[i] += strconv.Itoa(nodes[i])
				}
				k++
			}
			if g.socks[0] == nil {
				s, err := dial(g.addr)
				if err != nil {
					return nil, 0, err
				}
				g.socks[0] = s
			}
			c := g.socks[0]
			t0 := time.Now()
			lost := c.pipeline(paths)
			serve += time.Since(t0)

			r.attempted += pipeBatch
			var errs []error
			failed := 0
			if lost != nil {
				failed, errs = pipeBatch-len(c.replies), []error{lost}
			}
			for i, rp := range c.replies {
				err := rp.err
				if err == nil {
					err = g.checkBody(0, eps[i], nodes[i], c.buf[rp.start:rp.end])
				}
				if err != nil {
					failed++
					errs = append(errs, fmt.Errorf("%s: %w", endpointNames[eps[i]], err))
				}
			}
			if failed > 0 {
				// The stream may be out of step after a failure: start afresh.
				r.fail(failed, errors.Join(errs...))
				c.close()
				g.socks[0] = nil
			}
			t1 := time.Now()
			ref.run(refEvents / pipeGroup)
			kernel += time.Since(t1)
		}
		costs = append(costs, float64(serve)/float64(pipeGroup*pipeBatch)/float64(kernel))
		total += serve
	}
	return costs, total, nil
}

// runDaemon returns the daemon-ring64 runner. Untraced, it times set-up and
// then the serving cost under pipelined load. Traced, it measures the
// per-layer figures under open-loop load: an idle window, a fixed-rate
// phase and the capacity ladder. Everything is measured from outside the
// daemon process.
func runDaemon(traced bool) func(options, *report) error {
	return func(o options, r *report) error {
		if o.daemon == "" {
			return errors.New("daemon-ring64 needs -daemon <gradsyncd binary>")
		}
		setups := make([]float64, 0, daemonSetups)
		var d *daemon
		for i := 0; i < daemonSetups; i++ {
			dd, took, err := startDaemon(o.daemon)
			if err != nil {
				return err
			}
			setups = append(setups, took.Seconds())
			if i < daemonSetups-1 {
				dd.stop()
			} else {
				d = dd
			}
		}
		defer d.stop()

		conns := min(runtime.NumCPU(), 4)
		g := newGenerator(d.addr, conns, daemonN, o.seed)
		defer g.close()
		if traced {
			return daemonLayers(o, r, d, g)
		}

		ref := newRefKernel()
		if _, _, err := g.servingCost(daemonWarm, ref, r); err != nil { // warm-up: checked, not timed
			return err
		}
		costs, served, err := g.servingCost(o.seconds, ref, r)
		if err != nil {
			return err
		}
		rss, err := d.rss()
		if err != nil {
			return err
		}
		p50 := median(costs)
		tailCost, windows := windowedTail(costs, costWindow)
		setupS := median(setups)
		r.notef("daemon: gradsyncd -topo ring -n %d -timescale %s; pipelined batches of %d queries on one keep-alive connection, 1/%d of a reference-kernel run after each", daemonN, daemonTimescale, pipeBatch, pipeGroup)
		r.notef("query_cost_p50      %.6f ref  (wall time per query over the reference kernel's, median of %d groups of %d queries)", p50, len(costs), pipeGroup*pipeBatch)
		r.notef("query_cost_tail     %.6f ref  (median over %d windows of %d groups of each window's tail with %d beyond)", tailCost, windows, costWindow, minBeyond)
		r.notef("queries_per_s       %.0f 1/s  (pipelined, wall clock, this host)", float64(len(costs)*pipeGroup*pipeBatch)/served.Seconds())
		r.notef("rss_bytes_per_node  %.1f B  (daemon VmRSS / N=%d)", rss/daemonN, daemonN)
		r.notef("setup_s             %.4f s  (spawn to first 200 from /healthz, median of %d)", setupS, daemonSetups)
		r.metric("op_cost_p50", p50, "ref")
		r.metric("op_cost_tail", tailCost, "ref")
		r.metric("mem_bytes_per_node", rss/daemonN, "B")
		r.metric("setup_s", setupS, "s")
		return nil
	}
}

// daemonLayers measures the daemon's per-layer figures under open-loop
// load: its CPU with no queries, a fixed-rate phase timed from the due
// time, and the capacity ladder.
func daemonLayers(o options, r *report, d *daemon, g *generator) error {
	r.notef("daemon: gradsyncd -topo ring -n %d -timescale %s; Poisson open loop over %d keep-alive connections", daemonN, daemonTimescale, g.conns)
	c0, err := d.cpu()
	if err != nil {
		return err
	}
	time.Sleep(idleWindow)
	c1, err := d.cpu()
	if err != nil {
		return err
	}
	idleCPUms := float64(c1-c0) / 1e6 / idleWindow.Seconds()
	account(r, g.run(fixedQPS, daemonWarm, time.Second), false)

	fixedDur := (o.seconds - idleWindow) * 2 / 5
	st0, err := d.stats()
	if err != nil {
		return err
	}
	cpu0, err := d.cpu()
	if err != nil {
		return err
	}
	fixed := g.run(fixedQPS, fixedDur, time.Second)
	cpu1, err := d.cpu()
	if err != nil {
		return err
	}
	st1, err := d.stats()
	if err != nil {
		return err
	}
	account(r, fixed, true)
	fv := judge(fixed, sloLimits)
	lat := latencies(fixed)
	tailUs, windows := windowedTail(lat, tailWindow)
	whole := tailOf(lat)
	r.notef("query_p50_us        %.2f us  (at %d qps offered, %.0f/s delivered, from due time)", median(lat), fixedQPS, fv.delivered)
	r.notef("query_tail_us       %.2f us  (median over %d windows of up to %d requests of each window's tail with %d beyond; whole phase: p%.3f of %d samples = %.0f us)",
		tailUs, windows, tailWindow, minBeyond, whole.Pct, whole.N, whole.Value)
	r.notef("tick_p50_ms         %.4f ms  (nominal %.3f ms, p99 %.4f ms)", st1.TickP50Ms, st1.TickNominalMs, st1.TickP99Ms)
	if !fv.pass {
		r.notef("fixed phase missed the ladder's limits: %s", fv.why)
	}
	secs := fixedDur.Seconds()
	for ep := endpoint(0); ep < numEndpoints; ep++ {
		var xs []float64
		for i, s := range fixed.samples {
			if s.ep == ep {
				xs = append(xs, lat[i])
			}
		}
		t, _ := windowedTail(xs, tailWindow)
		r.metric("gradsyncd."+endpointNames[ep]+"_p50_us", median(xs), "us")
		r.metric("gradsyncd."+endpointNames[ep]+"_tail_us", t, "us")
	}
	busy := float64(cpu1-cpu0)/1e6 - idleCPUms*secs
	r.metric("gradsyncd.query_p50_us", median(lat), "us")
	r.metric("gradsyncd.query_tail_us", tailUs, "us")
	r.metric("gradsyncd.cpu_ms_per_kq", busy/(float64(len(fixed.samples))/1000), "ms")
	r.metric("live.cpu_ms_per_s_idle", idleCPUms, "ms")
	r.metric("live.tick_p50_ms", st1.TickP50Ms, "ms")
	r.metric("live.tick_p99_ms", st1.TickP99Ms, "ms")
	r.metric("live.publish_per_s", float64(st1.Epoch-st0.Epoch)/secs, "1/s")
	r.metric("live.enqueued_per_s", float64(st1.Enqueued-st0.Enqueued)/secs, "1/s")
	r.metric("live.dropped_per_s", float64(st1.Dropped-st0.Dropped)/secs, "1/s")
	r.metric("gen.late_ms_tail", fv.lateUs/1000, "ms")
	r.metric("trace.overhead_frac", 0, "frac") // nothing runs inside the daemon

	// Bisection takes at most bits.Len(len) rungs; they share the rest of
	// the run.
	rung := (o.seconds - idleWindow) * 3 / 5 / time.Duration(bits.Len(uint(len(ladderQPS))))
	best, steps := ladderSearch(ladderQPS, func(rate float64) rungVerdict {
		p := g.run(rate, rung, ladderDrain)
		account(r, p, true)
		return judge(p, sloLimits)
	})
	for _, v := range steps {
		verdict := "pass"
		switch {
		case v.invalid:
			verdict = "INVALID (" + v.why + ")"
		case !v.pass:
			verdict = "fail (" + v.why + ")"
		}
		r.notef("  ladder %6.0f qps: delivered %7.0f/s, tail %8.0f us, late %5.0f us, backlog %d→%d: %s",
			v.rate, v.delivered, v.tailUs, v.lateUs, v.backlog[0], v.backlog[1], verdict)
	}
	r.notef("max_qps_at_slo      %.1f 1/s  (delivered at the highest passing rate, %.0f qps offered: windowed tail ≤ %.0f us, delivered ≥ %.0f%%, no backlog growth; bisection over %d rates, rungs of %v)",
		best.delivered, best.rate, sloLimits.tailUs, 100*sloLimits.deliver, len(ladderQPS), rung)
	r.metric("gradsyncd.max_qps_at_slo", best.delivered, "1/s")
	return nil
}

// account adds a phase's requests to the run's operation counts (when
// counted) and its failures to the report.
func account(r *report, p *phase, counted bool) {
	if counted {
		r.attempted += len(p.samples)
	}
	failed := 0
	for _, s := range p.samples {
		if !s.ok {
			failed++
		}
	}
	if failed == 0 {
		return
	}
	err := errors.Join(p.failures...)
	if !counted {
		// A failure while warming up still means the outputs are wrong.
		r.attempted += failed
	}
	r.fail(failed, err)
}
