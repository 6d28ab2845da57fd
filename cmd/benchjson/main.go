// Command benchjson converts `go test -bench` output on stdin into a JSON
// benchmark record file, so benchmark runs can be archived and diffed as a
// perf trajectory (see `make bench-json`, which emits BENCH_sweep.json).
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson -out BENCH_sweep.json
//
// With -compare it is the trend checker closing that loop: it diffs two
// record files and exits non-zero when any benchmark regressed beyond the
// threshold (default 20% ns/op), so CI can flag perf drift across PRs.
//
//	benchjson -compare BENCH_baseline.json BENCH_sweep.json
//	benchjson -threshold 10 -compare old.json new.json
//
// With -markdown the comparison is rendered as a GitHub-flavored table —
// the nightly workflow appends it to $GITHUB_STEP_SUMMARY, so every run
// shows its per-benchmark delta against the committed baseline without
// downloading artifacts (the first step toward a perf-trend dashboard).
//
// Besides the timing columns, the parser files the live-heap bytes per node
// the Runtime benchmarks report as a `B/node` metric column into a "mem"
// section of the record file, keyed by the benchmark name without its
// `Benchmark` prefix, and -compare gates bytes/node against the baseline
// (default 10%): live-heap wall-clock is noisy but per-node retention is
// not, so the memory diet gets the same CI trend protection as ns/op and
// allocs/op. The `=== mem <case>: N=<n> live heap <x> MiB (<y> B/node) ===`
// footer lines older runs printed still parse into the same section, so
// archived raw outputs load unchanged.
//
// With -trend the command renders a markdown trend table across many record
// files (oldest → newest) — the nightly workflow feeds it the last ~10
// archived BENCH_sweep.json artifacts, turning the per-run snapshots into a
// perf trajectory in the job summary.
//
//	benchjson -trend run1.json run2.json ... BENCH_sweep.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Record is one parsed benchmark result line.
type Record struct {
	Pkg        string  `json:"pkg"`
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// EventsPerSec carries the substrate-throughput metric the scale-tier
	// benchmarks report via b.ReportMetric (E15 / BenchmarkRuntime10k).
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	// EventsPerWindow is the drain-batching metric (mean events per parallel
	// window) the Runtime benchmarks report; it tracks how far the sharded
	// event drain's windows have been widened.
	EventsPerWindow float64 `json:"events_per_window,omitempty"`
	// QPS is the query-throughput metric the gradsyncd endpoint benchmarks
	// report (BenchmarkSkewQuery / BenchmarkClockQuery) — the daemon's
	// query-plane headline.
	QPS         float64 `json:"qps,omitempty"`
	BPerOp      float64 `json:"b_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// HasMem marks that the B/op and allocs/op columns were present (the
	// run used -benchmem), so a recorded 0 allocs/op is distinguishable
	// from memory data simply being absent — required for the allocation
	// gate in -compare, where 0 → 1 allocs/op on a pinned-alloc-free
	// benchmark must fail.
	HasMem bool `json:"has_mem,omitempty"`
}

// MemRecord is one live-heap measurement taken after a forced GC with the
// network still reachable: a benchmark's `B/node` column, or a `=== mem
// <case>: N=<n> live heap <x> MiB (<y> B/node) ===` footer line. Only the
// footer carries N and the heap total; BytesPerNode is the figure -compare
// gates.
type MemRecord struct {
	Case         string  `json:"case"`
	N            int64   `json:"n,omitempty"`
	LiveHeapMiB  float64 `json:"live_heap_mib,omitempty"`
	BytesPerNode float64 `json:"bytes_per_node"`
}

// Report is the emitted JSON document. Mem is omitted when the run carried
// no live-heap figures, so record files from before the mem section stay
// loadable and comparable (the mem gate only fires when both sides carry a
// case).
type Report struct {
	Benchmarks []Record    `json:"benchmarks"`
	Mem        []MemRecord `json:"mem,omitempty"`
}

// benchLine captures the result columns in the order `go test` prints them:
// extra ReportMetric columns sort by unit in byte order, so B/node <
// events/sec < events/window < qps, all before the -benchmem pair.
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+)\s+(\d+)\s+([\d.]+) ns/op(?:\s+[\d.]+ MB/s)?(?:\s+([\d.e+]+) B/node)?(?:\s+([\d.e+]+) events/sec)?(?:\s+([\d.e+]+) events/window)?(?:\s+([\d.e+]+) qps)?(?:\s+([\d.]+) B/op\s+(\d+) allocs/op)?`)

// memLine matches the mem-footer format older runs printed, anywhere in a
// line (test harnesses may indent or prefix it).
var memLine = regexp.MustCompile(
	`=== mem (.+?): N=(\d+) live heap ([\d.]+) MiB \(([\d.]+) B/node\) ===`)

// procsSuffix is the machine-dependent -GOMAXPROCS suffix go test appends
// to benchmark names; it is stripped so records key across machines.
var procsSuffix = regexp.MustCompile(`-\d+$`)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	out := fs.String("out", "BENCH_sweep.json", "output JSON file")
	compare := fs.Bool("compare", false, "compare two record files (old new) instead of parsing stdin")
	threshold := fs.Float64("threshold", 20, "with -compare: max tolerated ns/op regression in percent")
	memThreshold := fs.Float64("mem-threshold", 10, "with -compare: max tolerated bytes-per-node regression in percent")
	markdown := fs.Bool("markdown", false, "with -compare: render the delta table as GitHub-flavored markdown (for $GITHUB_STEP_SUMMARY)")
	trend := fs.Bool("trend", false, "render a markdown trend table across record files given oldest → newest")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs exactly two files (old new), got %d", fs.NArg())
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), *threshold, *memThreshold, *markdown, stdout)
	}
	if *trend {
		if fs.NArg() < 1 {
			return fmt.Errorf("-trend needs at least one record file")
		}
		return trendFiles(fs.Args(), stdout)
	}

	report, err := parse(stdin)
	if err != nil {
		return err
	}
	if len(report.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark result lines found on stdin")
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "benchjson: wrote %d records (%d mem cases) to %s\n",
		len(report.Benchmarks), len(report.Mem), *out)
	return nil
}

// parse scans `go test -bench` output, tracking the current package from
// the "pkg:" header lines the test binary prints per package. Every result
// line is one record, so -count N yields N samples per benchmark. Live-heap
// figures are collected alongside; the last one per case wins (a benchmark
// run with -count N, or a footer reprinted per b.N restart, overwrites in
// place).
func parse(r io.Reader) (*Report, error) {
	report := &Report{}
	pkg := ""
	memIdx := map[string]int{}
	addMem := func(mr MemRecord) {
		if i, ok := memIdx[mr.Case]; ok {
			report.Mem[i] = mr
		} else {
			memIdx[mr.Case] = len(report.Mem)
			report.Mem = append(report.Mem, mr)
		}
	}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if p, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(p)
			continue
		}
		if m := memLine.FindStringSubmatch(line); m != nil {
			mr := MemRecord{Case: m[1]}
			var err error
			if mr.N, err = strconv.ParseInt(m[2], 10, 64); err != nil {
				return nil, fmt.Errorf("bad N in %q: %w", line, err)
			}
			if mr.LiveHeapMiB, err = strconv.ParseFloat(m[3], 64); err != nil {
				return nil, fmt.Errorf("bad live heap in %q: %w", line, err)
			}
			if mr.BytesPerNode, err = strconv.ParseFloat(m[4], 64); err != nil {
				return nil, fmt.Errorf("bad B/node in %q: %w", line, err)
			}
			addMem(mr)
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad iteration count in %q: %w", line, err)
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %w", line, err)
		}
		rec := Record{
			Pkg:        pkg,
			Name:       procsSuffix.ReplaceAllString(m[1], ""),
			Iterations: iters,
			NsPerOp:    ns,
		}
		if m[4] != "" {
			mr := MemRecord{Case: strings.TrimPrefix(rec.Name, "Benchmark")}
			if mr.BytesPerNode, err = strconv.ParseFloat(m[4], 64); err != nil {
				return nil, fmt.Errorf("bad B/node in %q: %w", line, err)
			}
			addMem(mr)
		}
		if m[5] != "" {
			if rec.EventsPerSec, err = strconv.ParseFloat(m[5], 64); err != nil {
				return nil, fmt.Errorf("bad events/sec in %q: %w", line, err)
			}
		}
		if m[6] != "" {
			if rec.EventsPerWindow, err = strconv.ParseFloat(m[6], 64); err != nil {
				return nil, fmt.Errorf("bad events/window in %q: %w", line, err)
			}
		}
		if m[7] != "" {
			if rec.QPS, err = strconv.ParseFloat(m[7], 64); err != nil {
				return nil, fmt.Errorf("bad qps in %q: %w", line, err)
			}
		}
		if m[8] != "" {
			if rec.BPerOp, err = strconv.ParseFloat(m[8], 64); err != nil {
				return nil, fmt.Errorf("bad B/op in %q: %w", line, err)
			}
			if rec.AllocsPerOp, err = strconv.ParseInt(m[9], 10, 64); err != nil {
				return nil, fmt.Errorf("bad allocs/op in %q: %w", line, err)
			}
			rec.HasMem = true
		}
		report.Benchmarks = append(report.Benchmarks, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return report, nil
}

// loadReport reads a record file previously written by this command.
func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var report Report
	if err := json.Unmarshal(data, &report); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &report, nil
}

// benchKey identifies a benchmark across record files.
type benchKey struct{ pkg, name string }

// fold collapses a record file's samples — `-count N` writes N records per
// benchmark — into one record per (pkg, name), in first-appearance order.
// Each column is the median of its samples (the mean of the middle two for
// an even count; allocs/op rounds that up), and HasMem holds only when
// every sample carried -benchmem data.
func fold(recs []Record) []Record {
	var out []Record
	groups := make(map[benchKey][]Record)
	for _, r := range recs {
		k := benchKey{r.Pkg, r.Name}
		if groups[k] == nil {
			out = append(out, r)
		}
		groups[k] = append(groups[k], r)
	}
	for i := range out {
		m := &out[i]
		g := groups[benchKey{m.Pkg, m.Name}]
		median := func(col func(Record) float64) float64 {
			xs := make([]float64, len(g))
			for j, r := range g {
				xs[j] = col(r)
			}
			sort.Float64s(xs)
			return (xs[(len(xs)-1)/2] + xs[len(xs)/2]) / 2
		}
		m.NsPerOp = median(func(r Record) float64 { return r.NsPerOp })
		m.EventsPerSec = median(func(r Record) float64 { return r.EventsPerSec })
		m.EventsPerWindow = median(func(r Record) float64 { return r.EventsPerWindow })
		m.QPS = median(func(r Record) float64 { return r.QPS })
		m.BPerOp = median(func(r Record) float64 { return r.BPerOp })
		m.AllocsPerOp = int64(math.Ceil(median(func(r Record) float64 { return float64(r.AllocsPerOp) })))
		for _, r := range g {
			m.HasMem = m.HasMem && r.HasMem
		}
	}
	return out
}

// deltaRow is one comparison outcome, rendered as text or markdown.
type deltaRow struct {
	name           string
	verdict        string // "ok", "REGRESSED", "new", "removed"
	oldNs, newNs   float64
	deltaPct       float64
	oldEv, newEv   float64 // events/sec where recorded (0 = absent)
	oldQPS, newQPS float64 // qps where recorded (0 = absent)
	hasMem         bool    // both records carried -benchmem columns
	oldAllocs      int64
	newAllocs      int64
	oldB, newB     float64
}

// memRow is one mem-footer comparison outcome.
type memRow struct {
	name           string
	verdict        string // "ok", "REGRESSED", "new", "removed"
	n              int64
	oldBpn, newBpn float64 // bytes per node
	deltaPct       float64
}

// compareFiles diffs two record files and fails on regressions: a benchmark
// present in both whose median ns/op grew by more than threshold percent,
// or — when both records carry -benchmem data — whose median allocs/op grew
// at all. Each side's samples are folded per (pkg, name) first (fold), so a
// `-count N` record compares as N-sample medians, not sample by sample.
// Allocation counts are deterministic, so the alloc gate is exact: it is
// what keeps the pinned-alloc-free hot paths (core step, invalidation,
// churn transitions) from silently regaining a per-op allocation. New and
// removed benchmarks are reported but never fail the check, so adding a
// benchmark (or retiring one) does not break CI.
//
// Mem footers are diffed by case name and gated at memThreshold percent
// bytes-per-node growth: per-node retention for a fixed configuration is
// deterministic up to GC rounding, so a 10% rise is a real packing
// regression, never noise. Cases absent on either side (old baselines
// predate the mem section) are reported but never fail.
func compareFiles(oldPath, newPath string, threshold, memThreshold float64, markdown bool, stdout io.Writer) error {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		return err
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		return err
	}
	oldRecs := fold(oldRep.Benchmarks)
	old := make(map[benchKey]Record, len(oldRecs))
	for _, r := range oldRecs {
		old[benchKey{r.Pkg, r.Name}] = r
	}

	var rows []deltaRow
	var regressions []string
	matched := 0
	for _, r := range fold(newRep.Benchmarks) {
		prev, ok := old[benchKey{r.Pkg, r.Name}]
		if !ok {
			rows = append(rows, deltaRow{name: r.Name, verdict: "new", newNs: r.NsPerOp, newEv: r.EventsPerSec, newQPS: r.QPS})
			continue
		}
		matched++
		delete(old, benchKey{r.Pkg, r.Name})
		deltaPct := 0.0
		if prev.NsPerOp > 0 {
			deltaPct = (r.NsPerOp - prev.NsPerOp) / prev.NsPerOp * 100
		}
		verdict := "ok"
		if deltaPct > threshold {
			verdict = "REGRESSED"
			regressions = append(regressions,
				fmt.Sprintf("%s %s: %.1f → %.1f ns/op (%+.1f%%, threshold %.0f%%)",
					r.Pkg, r.Name, prev.NsPerOp, r.NsPerOp, deltaPct, threshold))
		}
		hasMem := prev.HasMem && r.HasMem
		if hasMem && r.AllocsPerOp > prev.AllocsPerOp {
			verdict = "REGRESSED"
			regressions = append(regressions,
				fmt.Sprintf("%s %s: %d → %d allocs/op",
					r.Pkg, r.Name, prev.AllocsPerOp, r.AllocsPerOp))
		}
		rows = append(rows, deltaRow{
			name: r.Name, verdict: verdict,
			oldNs: prev.NsPerOp, newNs: r.NsPerOp, deltaPct: deltaPct,
			oldEv: prev.EventsPerSec, newEv: r.EventsPerSec,
			oldQPS: prev.QPS, newQPS: r.QPS,
			hasMem:    hasMem,
			oldAllocs: prev.AllocsPerOp, newAllocs: r.AllocsPerOp,
			oldB: prev.BPerOp, newB: r.BPerOp,
		})
	}
	removed := make([]string, 0, len(old))
	for key := range old {
		removed = append(removed, key.name)
	}
	sort.Strings(removed)
	for _, name := range removed {
		rows = append(rows, deltaRow{name: name, verdict: "removed"})
	}

	oldMem := make(map[string]MemRecord, len(oldRep.Mem))
	for _, m := range oldRep.Mem {
		oldMem[m.Case] = m
	}
	var memRows []memRow
	for _, m := range newRep.Mem {
		prev, ok := oldMem[m.Case]
		if !ok {
			memRows = append(memRows, memRow{name: m.Case, verdict: "new", n: m.N, newBpn: m.BytesPerNode})
			continue
		}
		delete(oldMem, m.Case)
		deltaPct := 0.0
		if prev.BytesPerNode > 0 {
			deltaPct = (m.BytesPerNode - prev.BytesPerNode) / prev.BytesPerNode * 100
		}
		verdict := "ok"
		if deltaPct > memThreshold {
			verdict = "REGRESSED"
			regressions = append(regressions,
				fmt.Sprintf("mem %s: %.0f → %.0f B/node (%+.1f%%, threshold %.0f%%)",
					m.Case, prev.BytesPerNode, m.BytesPerNode, deltaPct, memThreshold))
		}
		memRows = append(memRows, memRow{
			name: m.Case, verdict: verdict, n: m.N,
			oldBpn: prev.BytesPerNode, newBpn: m.BytesPerNode, deltaPct: deltaPct,
		})
	}
	removedMem := make([]string, 0, len(oldMem))
	for name := range oldMem {
		removedMem = append(removedMem, name)
	}
	sort.Strings(removedMem)
	for _, name := range removedMem {
		memRows = append(memRows, memRow{name: name, verdict: "removed"})
	}

	if markdown {
		renderMarkdown(rows, threshold, stdout)
		renderMemMarkdown(memRows, memThreshold, stdout)
	} else {
		renderText(rows, stdout)
		renderMemText(memRows, stdout)
	}
	if matched == 0 {
		return fmt.Errorf("no benchmark appears in both %s and %s", oldPath, newPath)
	}
	if len(regressions) > 0 {
		if !markdown {
			for _, r := range regressions {
				fmt.Fprintln(stdout, "regression:", r)
			}
		}
		return fmt.Errorf("%d regressions across %d matched benchmarks (thresholds: %.0f%% ns/op, %.0f%% B/node, any allocs/op growth)",
			len(regressions), matched, threshold, memThreshold)
	}
	if !markdown {
		fmt.Fprintf(stdout, "benchjson: %d matched benchmarks within threshold of baseline\n", matched)
	}
	return nil
}

// renderText is the historical plain-text rendering.
func renderText(rows []deltaRow, w io.Writer) {
	for _, r := range rows {
		switch r.verdict {
		case "new":
			fmt.Fprintf(w, "new       %-50s %12.1f ns/op\n", r.name, r.newNs)
		case "removed":
			fmt.Fprintf(w, "removed   %-50s\n", r.name)
		default:
			mem := ""
			if r.hasMem {
				mem = fmt.Sprintf("  %.0f → %.0f B/op  %d → %d allocs/op",
					r.oldB, r.newB, r.oldAllocs, r.newAllocs)
			}
			fmt.Fprintf(w, "%-9s %-50s %12.1f → %-12.1f ns/op  %+.1f%%%s\n",
				r.verdict, r.name, r.oldNs, r.newNs, r.deltaPct, mem)
		}
	}
}

// renderMarkdown emits the per-benchmark delta table for a GitHub job
// summary: one row per benchmark, baseline vs run ns/op, the percentage
// delta, and the events/sec columns where the benchmark records them.
func renderMarkdown(rows []deltaRow, threshold float64, w io.Writer) {
	fmt.Fprintf(w, "### Benchmark delta vs baseline (threshold %.0f%% ns/op; any allocs/op growth)\n\n", threshold)
	fmt.Fprintln(w, "| benchmark | baseline ns/op | run ns/op | Δ ns/op | B/op (baseline → run) | allocs/op (baseline → run) | events/sec (baseline → run) | qps (baseline → run) | verdict |")
	fmt.Fprintln(w, "|---|---:|---:|---:|---:|---:|---:|---:|---|")
	for _, r := range rows {
		ev := ""
		if r.oldEv > 0 || r.newEv > 0 {
			ev = fmt.Sprintf("%.3g → %.3g", r.oldEv, r.newEv)
		}
		qps := ""
		if r.oldQPS > 0 || r.newQPS > 0 {
			qps = fmt.Sprintf("%.3g → %.3g", r.oldQPS, r.newQPS)
		}
		bops, allocs := "", ""
		if r.hasMem {
			bops = fmt.Sprintf("%.0f → %.0f", r.oldB, r.newB)
			allocs = fmt.Sprintf("%d → %d", r.oldAllocs, r.newAllocs)
		}
		switch r.verdict {
		case "new":
			fmt.Fprintf(w, "| %s | — | %.1f | — | | | %s | %s | new |\n", r.name, r.newNs, ev, qps)
		case "removed":
			fmt.Fprintf(w, "| %s | — | — | — | | | | | removed |\n", r.name)
		default:
			verdict := "ok"
			if r.verdict == "REGRESSED" {
				verdict = "**REGRESSED**"
			}
			fmt.Fprintf(w, "| %s | %.1f | %.1f | %+.1f%% | %s | %s | %s | %s | %s |\n",
				r.name, r.oldNs, r.newNs, r.deltaPct, bops, allocs, ev, qps, verdict)
		}
	}
}

// renderMemText prints the mem-footer deltas in the plain-text format.
func renderMemText(rows []memRow, w io.Writer) {
	for _, r := range rows {
		switch r.verdict {
		case "new":
			fmt.Fprintf(w, "mem new   %-50s %12.0f B/node (N=%s)\n", r.name, r.newBpn, nodes(r.n))
		case "removed":
			fmt.Fprintf(w, "mem gone  %-50s\n", r.name)
		default:
			fmt.Fprintf(w, "mem %-5s %-50s %12.0f → %-12.0f B/node  %+.1f%%\n",
				r.verdict, r.name, r.oldBpn, r.newBpn, r.deltaPct)
		}
	}
}

// nodes renders a mem case's node count, which only footer-sourced
// records carry.
func nodes(n int64) string {
	if n == 0 {
		return "—"
	}
	return strconv.FormatInt(n, 10)
}

// renderMemMarkdown emits the live-heap delta table next to the benchmark
// table in the job summary. Skipped entirely when neither file carried mem
// footers, so summaries against pre-mem baselines stay unchanged.
func renderMemMarkdown(rows []memRow, memThreshold float64, w io.Writer) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "\n### Live-heap delta vs baseline (threshold %.0f%% bytes/node)\n\n", memThreshold)
	fmt.Fprintln(w, "| case | N | baseline B/node | run B/node | Δ B/node | verdict |")
	fmt.Fprintln(w, "|---|---:|---:|---:|---:|---|")
	for _, r := range rows {
		switch r.verdict {
		case "new":
			fmt.Fprintf(w, "| %s | %s | — | %.0f | — | new |\n", r.name, nodes(r.n), r.newBpn)
		case "removed":
			fmt.Fprintf(w, "| %s | — | — | — | — | removed |\n", r.name)
		default:
			verdict := "ok"
			if r.verdict == "REGRESSED" {
				verdict = "**REGRESSED**"
			}
			fmt.Fprintf(w, "| %s | %s | %.0f | %.0f | %+.1f%% | %s |\n",
				r.name, nodes(r.n), r.oldBpn, r.newBpn, r.deltaPct, verdict)
		}
	}
}

// trendFiles renders the multi-run perf trajectory: one markdown table of
// ns/op (and events/sec where recorded) per benchmark across every record
// file given oldest → newest, plus a bytes-per-node table for the mem
// footers. Rows are keyed by the newest file so retired benchmarks fall off
// the dashboard; runs that predate a benchmark (or the mem section) show an
// em-dash. Columns are labeled by file basename — the nightly workflow names
// the archived records after their run id, so the header doubles as the
// run index.
func trendFiles(paths []string, stdout io.Writer) error {
	type runRecords struct {
		label string
		bench map[benchKey]Record
		mem   map[string]MemRecord
	}
	runs := make([]runRecords, 0, len(paths))
	for _, path := range paths {
		rep, err := loadReport(path)
		if err != nil {
			return err
		}
		rr := runRecords{
			label: strings.TrimSuffix(filepath.Base(path), ".json"),
			bench: make(map[benchKey]Record, len(rep.Benchmarks)),
			mem:   make(map[string]MemRecord, len(rep.Mem)),
		}
		for _, r := range fold(rep.Benchmarks) {
			rr.bench[benchKey{r.Pkg, r.Name}] = r
		}
		for _, m := range rep.Mem {
			rr.mem[m.Case] = m
		}
		runs = append(runs, rr)
	}
	newest, err := loadReport(paths[len(paths)-1])
	if err != nil {
		return err
	}

	header := func(title, keyCol string) {
		fmt.Fprintf(stdout, "### %s\n\n| %s |", title, keyCol)
		for _, rr := range runs {
			fmt.Fprintf(stdout, " %s |", rr.label)
		}
		fmt.Fprint(stdout, "\n|---|")
		for range runs {
			fmt.Fprint(stdout, "---:|")
		}
		fmt.Fprintln(stdout)
	}

	header(fmt.Sprintf("ns/op trend across %d runs (oldest → newest)", len(runs)), "benchmark")
	for _, r := range fold(newest.Benchmarks) {
		fmt.Fprintf(stdout, "| %s |", r.Name)
		for _, rr := range runs {
			if rec, ok := rr.bench[benchKey{r.Pkg, r.Name}]; ok {
				cell := fmt.Sprintf("%.3g", rec.NsPerOp)
				if rec.EventsPerSec > 0 {
					cell += fmt.Sprintf(" (%.3g ev/s)", rec.EventsPerSec)
				}
				if rec.QPS > 0 {
					cell += fmt.Sprintf(" (%.3g qps)", rec.QPS)
				}
				fmt.Fprintf(stdout, " %s |", cell)
			} else {
				fmt.Fprint(stdout, " — |")
			}
		}
		fmt.Fprintln(stdout)
	}

	if len(newest.Mem) > 0 {
		fmt.Fprintln(stdout)
		header("B/node trend (live heap)", "case")
		for _, m := range newest.Mem {
			fmt.Fprintf(stdout, "| %s |", m.Case)
			for _, rr := range runs {
				if rec, ok := rr.mem[m.Case]; ok {
					fmt.Fprintf(stdout, " %.0f |", rec.BytesPerNode)
				} else {
					fmt.Fprint(stdout, " — |")
				}
			}
			fmt.Fprintln(stdout)
		}
	}
	return nil
}
