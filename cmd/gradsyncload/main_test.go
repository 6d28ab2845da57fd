package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestReadResponse pins the minimal response parser against pipelined
// keep-alive responses — the exact stream shape the generator sees.
func TestReadResponse(t *testing.T) {
	stream := "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 11\r\n\r\n{\"ok\":true}" +
		"HTTP/1.1 404 Not Found\r\nContent-Length: 9\r\n\r\nnot found" +
		"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nhi"
	br := bufio.NewReader(strings.NewReader(stream))
	for i, want := range []int{200, 404, 200} {
		got, err := readResponse(br)
		if err != nil || got != want {
			t.Fatalf("response %d: status %d, err %v; want %d", i, got, err, want)
		}
	}
	if _, err := readResponse(br); err == nil {
		t.Fatal("read past the end of the stream")
	}

	for name, stream := range map[string]string{
		"garbage":            "ECHO?\r\n\r\n",
		"no content length":  "HTTP/1.1 200 OK\r\n\r\nbody",
		"bad content length": "HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n",
		"truncated body":     "HTTP/1.1 200 OK\r\nContent-Length: 99\r\n\r\nshort",
	} {
		br := bufio.NewReader(strings.NewReader(stream))
		if _, err := readResponse(br); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestLoadGeneratorEndToEnd drives the full generator against a stub daemon
// and checks the JSON report: every endpoint saw traffic, quantiles are
// populated, and the daemon tick block was folded in from /v1/stats.
func TestLoadGeneratorEndToEnd(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r.URL.Path == "/v1/stats" {
			w.Write([]byte(`{"tickNominalMs":1,"tickP50Ms":1.05,"tickP99Ms":1.3}`))
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")

	var out bytes.Buffer
	err := run([]string{
		"-addr", addr, "-conns", "2",
		"-warmup", "50ms", "-duration", "200ms", "-json",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bad JSON report: %v\n%s", err, out.String())
	}
	if len(rep.Endpoints) != 5 {
		t.Fatalf("report covers %d endpoints, want 5", len(rep.Endpoints))
	}
	for _, row := range rep.Endpoints {
		if row.Requests == 0 || row.Errors != 0 {
			t.Errorf("%s: requests=%d errors=%d", row.Path, row.Requests, row.Errors)
		}
		if row.P50us <= 0 || row.P999us < row.P50us {
			t.Errorf("%s: implausible quantiles %+v", row.Path, row)
		}
	}
	if rep.Aggregate.Requests == 0 || rep.Aggregate.QPS <= 0 {
		t.Fatalf("empty aggregate: %+v", rep.Aggregate)
	}
	if rep.Daemon.TickNominalMs != 1 || rep.Daemon.TickP99Ms != 1.3 {
		t.Fatalf("daemon ticks not folded in: %+v", rep.Daemon)
	}
	if got := rep.Daemon.P99InflationPct; got < 29.9 || got > 30.1 {
		t.Fatalf("p99 inflation = %v%%, want ~30%%", got)
	}
}

// TestLoadGeneratorPacing checks that a -qps target actually bounds the
// request rate (within slop: pacing is sleep-based).
func TestLoadGeneratorPacing(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")

	var out bytes.Buffer
	err := run([]string{
		"-addr", addr, "-conns", "2", "-qps", "200",
		"-warmup", "50ms", "-duration", "400ms", "-json",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	// 200 qps over the measured window; allow generous headroom for sleep
	// granularity in both directions but catch closed-loop runaway (which
	// would be tens of thousands of qps).
	if rep.Aggregate.QPS > 400 || rep.Aggregate.QPS < 50 {
		t.Fatalf("target 200 qps, measured %.0f", rep.Aggregate.QPS)
	}
}

// TestLoadGeneratorPacedStall pins paced mode against coordinated omission:
// a stub server stalls once for 200ms inside the measured window. The
// requests that fell due during the stall must still be sent (the count
// keeps up with the target rate) and be timed from their due times (the
// stall reaches p99). A generator that resets its schedule after the stall
// and times from the actual send loses about a fifth of the requests and
// shows the stall in one sample only, below p99.
func TestLoadGeneratorPacedStall(t *testing.T) {
	const stall = 200 * time.Millisecond
	start := time.Now()
	var once sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if time.Since(start) > 400*time.Millisecond {
			once.Do(func() { time.Sleep(stall) })
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")

	var out bytes.Buffer
	err := run([]string{
		"-addr", addr, "-conns", "1", "-qps", "400", "-paths", "/healthz",
		"-warmup", "100ms", "-duration", "1s", "-json",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	agg := rep.Aggregate
	if want := 400 * rep.DurationSec; float64(agg.Requests) < 0.9*want {
		t.Errorf("sent %d requests in %.2fs, want ≥ 90%% of %.0f: the stall's requests were omitted",
			agg.Requests, rep.DurationSec, want)
	}
	if agg.P99us < 0.5*float64(stall.Microseconds()) {
		t.Errorf("p99 %.0fµs after a %v stall: latency is not timed from the due time", agg.P99us, stall)
	}
}
