// Command gradsyncload is the closed-loop load generator for gradsyncd: it
// opens a set of keep-alive HTTP/1.1 connections, drives the daemon's five
// query endpoints round-robin (optionally paced to a target aggregate QPS,
// timing each request from its due time on the fixed schedule so a daemon
// stall shows in the tail), and reports per-endpoint throughput and latency
// quantiles from log-linear histograms (internal/hist, ~6% relative error).
// After the measured window it reads the daemon's /v1/stats once and reports
// the protocol's tick timing — the figure that tells you whether query load
// perturbed the state machine, which the epoch-snapshot read path exists to
// prevent.
//
// The client speaks raw TCP with prebuilt request bytes rather than
// net/http, so generator-side allocation and connection-pool jitter don't
// pollute the latency measurement.
//
// Examples:
//
//	gradsyncload -addr 127.0.0.1:8470 -conns 8 -duration 10s
//	gradsyncload -addr 127.0.0.1:8470 -qps 50000 -json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hist"
)

// defaultPaths is the daemon's full query API; the round-robin over them
// exercises cached (healthz, legality), pooled (skew, stats) and
// parameterized (clock) serving paths in one run.
var defaultPaths = []string{
	"/healthz",
	"/v1/clock?node=0",
	"/v1/skew",
	"/v1/legality",
	"/v1/stats",
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gradsyncload:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gradsyncload", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:8470", "daemon HTTP address (host:port)")
		conns    = fs.Int("conns", 4, "concurrent keep-alive connections")
		duration = fs.Duration("duration", 10*time.Second, "measured window (after warmup)")
		warmup   = fs.Duration("warmup", 1*time.Second, "warmup before measurement starts")
		qps      = fs.Float64("qps", 0, "aggregate target request rate, latency timed from each request's due time (0: closed loop, as fast as the daemon answers)")
		jsonOut  = fs.Bool("json", false, "emit machine-readable JSON instead of the table")
		paths    = fs.String("paths", "", "comma-separated request paths (default: all five API endpoints)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *conns < 1 {
		return fmt.Errorf("-conns must be ≥ 1, got %d", *conns)
	}
	targets := defaultPaths
	if *paths != "" {
		targets = strings.Split(*paths, ",")
	}

	var (
		recording atomic.Bool
		stop      atomic.Bool
		wg        sync.WaitGroup
	)
	workers := make([]*worker, *conns)
	for i := range workers {
		w, err := newWorker(*addr, targets, *qps, *conns)
		if err != nil {
			return err
		}
		workers[i] = w
	}
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.loop(&recording, &stop)
		}(w)
	}
	time.Sleep(*warmup)
	recording.Store(true)
	measured := time.Now()
	time.Sleep(*duration)
	recording.Store(false)
	elapsed := time.Since(measured)
	stop.Store(true)
	wg.Wait()
	for _, w := range workers {
		w.close()
	}

	rep := summarize(workers, targets, elapsed, *addr, *conns, *qps)
	rep.Daemon = fetchDaemonTicks(*addr)
	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	rep.renderTable(out)
	return nil
}

// worker is one keep-alive connection cycling through the target paths.
// All request bytes are prebuilt and all measurement state is owned by the
// worker's goroutine; nothing is shared until the final merge.
type worker struct {
	addr   string
	conn   net.Conn
	br     *bufio.Reader
	reqs   [][]byte
	pacing time.Duration // per-connection inter-request interval; 0 = closed loop

	hists  []hist.Hist // one per path, measured window only
	counts []uint64
	errs   []uint64
}

func newWorker(addr string, paths []string, qps float64, conns int) (*worker, error) {
	w := &worker{
		addr:   addr,
		reqs:   make([][]byte, len(paths)),
		hists:  make([]hist.Hist, len(paths)),
		counts: make([]uint64, len(paths)),
		errs:   make([]uint64, len(paths)),
	}
	for i, p := range paths {
		w.reqs[i] = []byte("GET " + p + " HTTP/1.1\r\nHost: gradsync\r\n\r\n")
	}
	if qps > 0 {
		w.pacing = time.Duration(float64(time.Second) * float64(conns) / qps)
	}
	if err := w.dial(); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *worker) dial() error {
	conn, err := net.DialTimeout("tcp", w.addr, 5*time.Second)
	if err != nil {
		return err
	}
	w.conn = conn
	if w.br == nil {
		w.br = bufio.NewReaderSize(conn, 4096)
	} else {
		w.br.Reset(conn)
	}
	return nil
}

func (w *worker) close() {
	if w.conn != nil {
		w.conn.Close()
	}
}

func (w *worker) loop(recording, stop *atomic.Bool) {
	next := time.Now()
	for i := 0; ; i++ {
		if stop.Load() {
			return
		}
		p := i % len(w.reqs)
		t0 := time.Now()
		if w.pacing > 0 {
			// Requests are due on a fixed schedule and each is timed from
			// its due time. After a stall the missed requests go out back
			// to back, so the stall shows in the latency tail and the sent
			// count instead of being omitted (coordinated omission).
			if t0.Before(next) {
				time.Sleep(next.Sub(t0))
			}
			t0 = next
			next = next.Add(w.pacing)
		}
		err := w.oneRequest(p)
		lat := time.Since(t0)
		rec := recording.Load()
		if err != nil {
			if rec {
				w.errs[p]++
			}
			// The connection is in an unknown state after any error:
			// reconnect before continuing (the daemon may have restarted).
			w.close()
			if stop.Load() {
				return
			}
			time.Sleep(50 * time.Millisecond)
			if w.dial() != nil {
				time.Sleep(200 * time.Millisecond)
			}
			continue
		}
		if rec {
			w.counts[p]++
			w.hists[p].Add(lat.Nanoseconds())
		}
	}
}

// oneRequest writes one prebuilt request and consumes exactly one response.
func (w *worker) oneRequest(p int) error {
	if w.conn == nil {
		return fmt.Errorf("no connection")
	}
	w.conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := w.conn.Write(w.reqs[p]); err != nil {
		return err
	}
	status, err := readResponse(w.br)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d", status)
	}
	return nil
}

// readResponse consumes one HTTP/1.1 response from br — status line, headers,
// Content-Length body — leaving the reader positioned at the next response.
// Only the subset of HTTP the daemon emits is supported (Content-Length
// framing; no chunked encoding).
func readResponse(br *bufio.Reader) (status int, err error) {
	line, err := readLine(br)
	if err != nil {
		return 0, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, fmt.Errorf("bad status line %q", line)
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, fmt.Errorf("bad status line %q", line)
	}
	contentLength := -1
	for {
		line, err = readLine(br)
		if err != nil {
			return 0, err
		}
		if len(line) == 0 {
			break
		}
		if k, v, ok := bytes.Cut(line, []byte{':'}); ok && strings.EqualFold(string(k), "Content-Length") {
			contentLength, err = strconv.Atoi(string(bytes.TrimSpace(v)))
			if err != nil {
				return 0, fmt.Errorf("bad Content-Length %q", v)
			}
		}
	}
	switch {
	case contentLength > 0:
		if _, err := br.Discard(contentLength); err != nil {
			return 0, err
		}
	case contentLength < 0 && status != http.StatusNoContent:
		return 0, fmt.Errorf("response without Content-Length")
	}
	return status, nil
}

// readLine returns the next CRLF-terminated line without the terminator.
// The returned slice aliases the reader's buffer: valid until the next read.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	line = bytes.TrimSuffix(line, []byte("\n"))
	return bytes.TrimSuffix(line, []byte("\r")), nil
}

// endpointReport is one row of the output: a path's measured traffic and
// latency quantiles in microseconds.
type endpointReport struct {
	Path     string  `json:"path"`
	Requests uint64  `json:"requests"`
	Errors   uint64  `json:"errors"`
	QPS      float64 `json:"qps"`
	P50us    float64 `json:"p50us"`
	P95us    float64 `json:"p95us"`
	P99us    float64 `json:"p99us"`
	P999us   float64 `json:"p999us"`
}

// daemonTicks is the daemon-side timing read from /v1/stats after the run:
// protocol tick cadence under the load just applied. P99InflationPct is the
// measured p99 over nominal, as a percentage — near zero means query load
// did not perturb the state machine.
type daemonTicks struct {
	TickNominalMs   float64 `json:"tickNominalMs"`
	TickP50Ms       float64 `json:"tickP50Ms"`
	TickP99Ms       float64 `json:"tickP99Ms"`
	P99InflationPct float64 `json:"p99InflationPct"`
	Err             string  `json:"err,omitempty"`
}

type report struct {
	Addr        string           `json:"addr"`
	Conns       int              `json:"conns"`
	DurationSec float64          `json:"durationSec"`
	TargetQPS   float64          `json:"targetQps,omitempty"`
	Endpoints   []endpointReport `json:"endpoints"`
	Aggregate   endpointReport   `json:"aggregate"`
	Daemon      daemonTicks      `json:"daemon"`
}

func summarize(workers []*worker, paths []string, elapsed time.Duration, addr string, conns int, qps float64) *report {
	rep := &report{Addr: addr, Conns: conns, DurationSec: elapsed.Seconds(), TargetQPS: qps}
	var agg hist.Hist
	for p, path := range paths {
		var h hist.Hist
		row := endpointReport{Path: path}
		for _, w := range workers {
			h.Merge(&w.hists[p])
			row.Requests += w.counts[p]
			row.Errors += w.errs[p]
		}
		agg.Merge(&h)
		row.QPS = float64(row.Requests) / elapsed.Seconds()
		row.P50us = float64(h.Quantile(0.5)) / 1e3
		row.P95us = float64(h.Quantile(0.95)) / 1e3
		row.P99us = float64(h.Quantile(0.99)) / 1e3
		row.P999us = float64(h.Quantile(0.999)) / 1e3
		rep.Endpoints = append(rep.Endpoints, row)
		rep.Aggregate.Requests += row.Requests
		rep.Aggregate.Errors += row.Errors
	}
	rep.Aggregate.Path = "aggregate"
	rep.Aggregate.QPS = float64(rep.Aggregate.Requests) / elapsed.Seconds()
	rep.Aggregate.P50us = float64(agg.Quantile(0.5)) / 1e3
	rep.Aggregate.P95us = float64(agg.Quantile(0.95)) / 1e3
	rep.Aggregate.P99us = float64(agg.Quantile(0.99)) / 1e3
	rep.Aggregate.P999us = float64(agg.Quantile(0.999)) / 1e3
	return rep
}

// fetchDaemonTicks reads the daemon's tick timing once, after the measured
// window. Cold path: plain net/http is fine here.
func fetchDaemonTicks(addr string) daemonTicks {
	var d daemonTicks
	resp, err := http.Get("http://" + addr + "/v1/stats")
	if err != nil {
		d.Err = err.Error()
		return d
	}
	defer resp.Body.Close()
	var stats struct {
		TickNominalMs float64 `json:"tickNominalMs"`
		TickP50Ms     float64 `json:"tickP50Ms"`
		TickP99Ms     float64 `json:"tickP99Ms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		d.Err = err.Error()
		return d
	}
	d.TickNominalMs = stats.TickNominalMs
	d.TickP50Ms = stats.TickP50Ms
	d.TickP99Ms = stats.TickP99Ms
	if stats.TickNominalMs > 0 {
		d.P99InflationPct = 100 * (stats.TickP99Ms - stats.TickNominalMs) / stats.TickNominalMs
	}
	return d
}

func (r *report) renderTable(out io.Writer) {
	fmt.Fprintf(out, "gradsyncload: %s  conns=%d  measured=%.1fs", r.Addr, r.Conns, r.DurationSec)
	if r.TargetQPS > 0 {
		fmt.Fprintf(out, "  target=%.0f qps", r.TargetQPS)
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "%-20s %10s %7s %12s %9s %9s %9s %9s\n",
		"endpoint", "requests", "errors", "qps", "p50(µs)", "p95(µs)", "p99(µs)", "p999(µs)")
	for _, row := range append(r.Endpoints, r.Aggregate) {
		fmt.Fprintf(out, "%-20s %10d %7d %12.0f %9.0f %9.0f %9.0f %9.0f\n",
			row.Path, row.Requests, row.Errors, row.QPS, row.P50us, row.P95us, row.P99us, row.P999us)
	}
	if r.Daemon.Err != "" {
		fmt.Fprintf(out, "daemon ticks: unavailable (%s)\n", r.Daemon.Err)
	} else {
		fmt.Fprintf(out, "daemon ticks: nominal=%.2fms p50=%.2fms p99=%.2fms (p99 inflation %.1f%%)\n",
			r.Daemon.TickNominalMs, r.Daemon.TickP50Ms, r.Daemon.TickP99Ms, r.Daemon.P99InflationPct)
	}
}
