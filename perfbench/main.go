// Command perfbench is the repository's benchmark. It runs one workload
// through the public entry points — a 10⁴-node ring simulated through
// gradsync.New and Network.RunFor, or a gradsyncd daemon under open-loop
// query load — checks every output, and prints the metrics named in
// BENCHMARK.json: the end-to-end set with -trace 0, the per-layer set (from
// decorators and counters measured outside the program) with -trace 1. The
// last line of standard output is one JSON object; the lines before it
// are the same figures for a reader.
//
// Run it from the repository root through perfbench/run.sh, which builds
// this command and the daemon first:
//
//	bash perfbench/run.sh --workload ring10k-oracle --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// options are the benchmark's command-line arguments.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	daemon   string // path of the gradsyncd binary
}

// specFile defines the metrics; the benchmark runs from the repository root.
const specFile = "BENCHMARK.json"

// workloads maps each workload name to its end-to-end and traced runners.
var workloads = map[string]struct {
	run, traced func(options, *report) error
}{
	"ring10k-oracle":    {simWorkload{}.run, simWorkload{}.runTraced},
	"ring10k-messaging": {simWorkload{messaging: true}.run, simWorkload{messaging: true}.runTraced},
	"daemon-ring64":     {runDaemon(false), runDaemon(true)},
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var seconds, trace int
	fs.StringVar(&o.workload, "workload", "", "workload name (see BENCHMARK.json)")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&seconds, "seconds", 20, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 = report the per-layer metrics of a traced run")
	fs.StringVar(&o.daemon, "daemon", "", "gradsyncd binary")
	if err := fs.Parse(args); err != nil {
		return err
	}
	o.seconds, o.trace = time.Duration(seconds)*time.Second, trace == 1
	w, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds ≥ 1 and --trace 0 or 1")
	}
	want, err := metricNames(specFile, o.trace)
	if err != nil {
		return err
	}

	r := &report{metrics: map[string]metricValue{}}
	hostFacts(r)
	runner := w.run
	if o.trace {
		runner = w.traced
	}
	steal0, total0 := hostCPU()
	if err := runner(o, r); err != nil {
		return err
	}
	if steal1, total1 := hostCPU(); total1 > total0 {
		r.notef("host: %.1f%% of CPU time stolen by the hypervisor during the run", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	return r.print(os.Stdout, want, o.trace)
}

// metricNames reads the metric names of one set from the benchmark
// definition, so the output always matches it.
func metricNames(path string, perLayer bool) (map[string]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	set := spec.EndToEnd
	if perLayer {
		set = spec.PerLayer
	}
	out := make(map[string]string, len(set))
	for _, m := range set {
		out[m.Name] = m.Unit
	}
	return out, nil
}

// metricValue is one reported figure.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one run's outcome.
type report struct {
	attempted, failed int
	errs              []error
	metrics           map[string]metricValue
	notes             []string
}

func (r *report) metric(name string, v float64, unit string) {
	r.metrics[name] = metricValue{v, unit}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records n failed operations and the error behind them.
func (r *report) fail(n int, err error) {
	r.failed += n
	if len(r.errs) < 8 {
		r.errs = append(r.errs, err)
	}
}

// print writes the readable lines and then the result object. A per-layer
// metric the workload does not exercise (a daemon layer on a sim workload,
// say) reads 0; a metric reported but not defined, a unit that disagrees
// with the definition, or a run that attempted nothing is an error in the
// benchmark itself.
func (r *report) print(w io.Writer, want map[string]string, perLayer bool) error {
	if r.attempted < 1 {
		return errors.New("no operation was attempted")
	}
	for name, m := range r.metrics {
		unit, ok := want[name]
		if !ok {
			return fmt.Errorf("metric %s is not defined in the benchmark", name)
		}
		if unit != m.Unit {
			return fmt.Errorf("metric %s: unit %s, defined as %s", name, m.Unit, unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite", name)
		}
	}
	for name, unit := range want {
		if _, ok := r.metrics[name]; !ok {
			if !perLayer {
				return fmt.Errorf("end-to-end metric %s was not measured", name)
			}
			r.metrics[name] = metricValue{0, unit}
		}
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", name, r.metrics[name].Value, r.metrics[name].Unit)
	}
	errRate := 0.0
	if r.attempted > 0 {
		errRate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "error_rate %.6g (%d failed of %d attempted)\n", errRate, r.failed, r.attempted)
	if err := errors.Join(r.errs...); err != nil {
		fmt.Fprintln(w, "failures:", err)
	}
	out, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(out))
	return nil
}

// hostCPU returns the host's stolen and total CPU time so far, in clock
// ticks, from the first line of /proc/stat (zeros where it is missing). On
// a virtual machine, time stolen by the hypervisor is the usual reason two
// runs of the same code differ.
func hostCPU() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user … steal; guest time is already inside user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// hostFacts notes the facts a figure needs beside it.
func hostFacts(r *report) {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	r.notef("host: nproc %d, GOMAXPROCS %d, %s, cpu %q", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpu)
}
