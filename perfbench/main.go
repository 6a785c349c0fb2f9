// Command perfbench is the repository's benchmark: four workloads that
// each stress a different layer of the CE-overhead simulator, timed in
// host (wall-clock) time from outside the program through its public
// APIs. Simulated results are never timed; they are checked against
// committed digests and against independent computations, and a run
// whose outputs fail a check reports correct=false.
//
//	perfbench --workload fig5-sweep --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object with
// every end-to-end metric; with --trace 1 the run alternates untraced
// and traced measurements and reports every per-layer metric instead.
// See README.md for the workloads, the metrics and the layer each
// metric should move.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
)

var workloads = []string{"fig5-sweep", "fig8-saturation", "daemon-simulate", "cluster-sweep"}

// metric is a reported metric's name and unit.
type metric struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them. A sweep workload's operation is one figure
// sweep, the daemon's is one round of its closed-loop traffic.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_ops_per_s", "1/s"},
	{"jobs_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, per measured operation.
var perLayer = []metric{
	{"tracegen.busy_s", "s"}, {"tracegen.calls", "count"},
	{"collectives.busy_s", "s"}, {"collectives.calls", "count"}, {"collectives.memo_hit_ratio", "ratio"},
	{"loggopsim.baseline_busy_s", "s"}, {"loggopsim.baseline_runs", "count"},
	{"core.reps_busy_s", "s"}, {"core.reps_simulated", "count"}, {"core.saturated_reps", "count"},
	{"core.ns_per_sim_op", "ns"},
	{"noise.busy_s", "s"}, {"noise.gaps_drawn", "count"}, {"noise.ce_events", "count"},
	{"noise.events_per_gap", "ratio"},
	{"campaign.write_busy_s", "s"},
	{"simcache.hit_ratio", "ratio"}, {"simcache.builds", "count"}, {"simcache.build_busy_s", "s"},
	{"simcache.coalesced", "count"}, {"simcache.store_puts", "count"}, {"simcache.store_hits", "count"},
	{"jobs.wait_p50_ms", "ms"}, {"jobs.wait_p99_ms", "ms"}, {"jobs.run_p50_ms", "ms"},
	{"jobs.rejected", "count"}, {"jobs.retries", "count"},
	{"server.http_p50_ms", "ms"}, {"server.polls_per_job", "ratio"},
	{"journal.append_busy_s", "s"}, {"journal.appends", "count"}, {"journal.syncs", "count"},
	{"journal.bytes", "bytes"},
	{"cluster.grants", "count"}, {"cluster.reassignments", "count"}, {"cluster.failed_attempts", "count"},
	{"cluster.cell_busy_max_s", "s"}, {"cluster.worker_idle_frac", "ratio"},
	{"bench.trace_overhead_frac", "ratio"},
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		if err := childMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parent's command line.
type options struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	scale    string
	ref      string
	work     string
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed")
	seconds := fs.Int("seconds", 25, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	fs.StringVar(&o.scale, "scale", "full", "input scale: full, or tiny for the self-tests")
	fs.StringVar(&o.ref, "ref", filepath.Join("perfbench", "reference.json"), "committed reference digests")
	fs.StringVar(&o.work, "work", ".bench_build", "working directory for artifacts, journals and spans")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if !contains(workloads, o.workload) {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloads, ", "))
	}
	if _, ok := scales[o.scale]; !ok {
		return o, fmt.Errorf("unknown scale %q", o.scale)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return o, fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	o.window = time.Duration(*seconds) * time.Second
	o.trace = *trace == 1
	return o, nil
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// unit is one child process's outcome.
type unit struct {
	traced bool
	input  int
	setup  time.Duration // spawn to ready
	rep    *report
}

// result is the contract's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is the parent: it spawns the measured child processes, gates
// their outputs, and prints the metrics. It returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	ref, err := loadReference(o.ref)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	units, err := measure(o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	g, err := gate(o, ref, units)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res := result{Correct: len(g.problems) == 0, Attempted: g.attempted, Failed: g.failed, Metrics: map[string]metricValue{}}
	fmt.Fprintf(stdout, "perfbench %s seed=%d trace=%v scale=%s window=%s (host time; simulated results are gated, never timed)\n",
		o.workload, o.seed, o.trace, o.scale, o.window)
	if o.trace {
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{layerValue(units, m.name), m.unit}
		}
		printMetrics(stdout, perLayer, res.Metrics, map[string]int{})
	} else {
		vals, counts := endToEndValues(units)
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
		}
		printMetrics(stdout, endToEnd, res.Metrics, counts)
	}
	fmt.Fprintf(stdout, "  %-28s %.6g (%d failed or refused of %d attempted)\n", "error_rate",
		ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	fmt.Fprintf(stdout, "  %-28s %s (reference %s)\n", "output digest", g.digest, orNone(g.want))
	for i, p := range g.problems {
		if i == maxProblemLines {
			fmt.Fprintf(stdout, "  ... and %d more failed checks\n", len(g.problems)-i)
			break
		}
		fmt.Fprintln(stdout, "  FAILED CHECK:", p)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// maxProblemLines bounds how many failed checks are listed.
const maxProblemLines = 20

func orNone(s string) string {
	if s == "" {
		return "none at this seed and scale"
	}
	return s
}

func printMetrics(w io.Writer, ms []metric, vals map[string]metricValue, counts map[string]int) {
	for _, m := range ms {
		n := ""
		if c, ok := counts[m.name]; ok {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Fprintf(w, "  %-28s %.6g %s%s\n", m.name, vals[m.name].Value, m.unit, n)
	}
}

// endToEndValues computes the end-to-end metrics from the untraced
// children, with each metric's sample count. Rates are per operation
// (work in the operation over its wall time) and every timing is a
// median, except the tail latency (see tail).
func endToEndValues(units []unit) (map[string]float64, map[string]int) {
	var setups, rss, walls, simRates, jobRates, lat []float64
	for _, u := range units {
		setups = append(setups, u.setup.Seconds())
		if u.rep == nil || u.traced {
			continue
		}
		rss = append(rss, u.rep.PeakRSSMB)
		for _, op := range u.rep.Ops {
			walls = append(walls, op.Wall)
			simRates = append(simRates, ratio(float64(op.SimOps), op.Wall))
			jobRates = append(jobRates, ratio(float64(op.Jobs), op.Wall))
		}
		lat = append(lat, u.rep.Latency...)
	}
	vals := map[string]float64{
		"setup_s":        median(setups),
		"wall_s":         median(walls),
		"sim_ops_per_s":  median(simRates),
		"jobs_per_s":     median(jobRates),
		"latency_p50_ms": median(lat),
		"latency_p99_ms": windowedTail(lat),
		"peak_rss_mb":    median(rss),
	}
	counts := map[string]int{
		"setup_s": len(setups), "wall_s": len(walls), "sim_ops_per_s": len(simRates),
		"jobs_per_s": len(jobRates), "latency_p50_ms": len(lat), "latency_p99_ms": len(lat),
		"peak_rss_mb": len(rss),
	}
	return vals, counts
}

// tailWindows is how many consecutive stretches a large latency
// sample is cut into for the tail; each needs minWindowSamples.
const (
	tailWindows      = 5
	minWindowSamples = 1000
)

// windowedTail is the median over tailWindows consecutive stretches of
// a latency sample (in the order it was measured) of each stretch's
// tail, so a burst of host contention in one stretch does not set the
// run's p99. A sample too small for that gets one tail over all of it.
func windowedTail(lat []float64) float64 {
	n := len(lat) / tailWindows
	if n < minWindowSamples {
		return tail(lat)
	}
	tails := make([]float64, tailWindows)
	for i := range tails {
		tails[i] = tail(lat[i*n : (i+1)*n])
	}
	return median(tails)
}

// layerValue is the median over traced children of one per-layer
// metric (0 where the workload does not reach the layer), or the
// tracing overhead: traced over untraced median operation wall time,
// minus one.
func layerValue(units []unit, name string) float64 {
	var traced, plain, vals []float64
	for _, u := range units {
		if u.rep == nil {
			continue
		}
		for _, op := range u.rep.Ops {
			if u.traced {
				traced = append(traced, op.Wall)
			} else {
				plain = append(plain, op.Wall)
			}
		}
		if u.traced {
			vals = append(vals, u.rep.Layers[name])
		}
	}
	if name == "bench.trace_overhead_frac" {
		return ratio(median(traced), median(plain)) - 1
	}
	return median(vals)
}

// setupSamples is how many times a daemon run boots its stack;
// set-up time is their median.
const setupSamples = 21

// measure runs the workload's child processes within the window.
func measure(o options, stderr io.Writer) ([]unit, error) {
	work, err := filepath.Abs(o.work)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(work, "work", fmt.Sprintf("%s-%d", o.workload, os.Getpid()))
	defer os.RemoveAll(dir)
	// The whole run must end well inside three minutes, whatever a
	// child does.
	ctx, cancel := context.WithTimeout(context.Background(), o.window+150*time.Second)
	defer cancel()
	spawn := func(n, input int, traced bool, extra ...string) (unit, error) {
		args := []string{"-workload", o.workload, "-seed", strconv.FormatUint(o.seed, 10), "-scale", o.scale,
			"-trace=" + strconv.FormatBool(traced), "-work", filepath.Join(dir, strconv.Itoa(n)),
			"-input", strconv.Itoa(input)}
		if traced {
			args = append(args, "-spans", filepath.Join(work, "spans", fmt.Sprintf("%s-seed%d-%d.jsonl", o.workload, o.seed, n)))
		}
		u, err := spawnChild(ctx, append(args, extra...), stderr)
		u.traced, u.input = traced, input
		return u, err
	}
	var units []unit
	if o.workload == "daemon-simulate" {
		// One long-lived daemon carries the load; extra boots give
		// set-up its samples.
		n := 0
		if !o.trace {
			for ; n < setupSamples-1; n++ {
				u, err := spawn(n, 0, false, "-boot-only")
				if err != nil {
					return nil, err
				}
				units = append(units, u)
			}
		}
		windows := []bool{false}
		if o.trace {
			windows = []bool{false, true}
		}
		for _, traced := range windows {
			w := o.window / time.Duration(len(windows))
			u, err := spawn(n, 0, traced, "-window", w.String())
			n++
			if err != nil {
				return nil, err
			}
			units = append(units, u)
		}
		return units, nil
	}
	// Sweeps: one fresh process per sweep, cycling through the
	// workload's inputs, until the next would overrun the window. A
	// traced run alternates untraced and traced sweeps so the overhead
	// compares like with like; with an odd input count every input
	// runs both ways within twice as many sweeps as there are inputs.
	inputs := inputsOf(o.workload)
	start := time.Now()
	var last time.Duration
	for n := 0; ; n++ {
		traced := o.trace && n%2 == 1
		if n >= 2*inputs && time.Since(start)+last > o.window {
			break
		}
		t := time.Now()
		u, err := spawn(n, n%inputs, traced)
		if err != nil {
			return nil, err
		}
		last = time.Since(t)
		units = append(units, u)
	}
	return units, nil
}

// inputsOf is how many distinct inputs a run of the workload cycles
// through (see sweepInputs): one for the daemon, whose traffic mix
// already spans many seeds.
func inputsOf(workload string) int {
	switch workload {
	case "daemon-simulate":
		return 1
	case "fig8-saturation":
		return fig8Inputs
	}
	return sweepInputs
}

// spawnChild runs one child and collects its ready time and report.
func spawnChild(ctx context.Context, args []string, stderr io.Writer) (unit, error) {
	exe, err := os.Executable()
	if err != nil {
		return unit{}, err
	}
	cmd := exec.CommandContext(ctx, exe, append([]string{"child"}, args...)...)
	cmd.Stderr = stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return unit{}, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return unit{}, err
	}
	var u unit
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 1<<20), 256<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == readyLine:
			u.setup = time.Since(start)
		case strings.HasPrefix(line, reportPrefix):
			u.rep = &report{}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, reportPrefix)), u.rep); err != nil {
				return u, errors.Join(fmt.Errorf("child report: %w", err), cmd.Wait())
			}
		}
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return u, fmt.Errorf("child %v: %w", args, err)
	}
	if scanErr != nil {
		return u, scanErr
	}
	if u.setup == 0 {
		return u, fmt.Errorf("child %v never became ready", args)
	}
	return u, nil
}

// gated is the outcome of the output gate.
type gated struct {
	attempted, failed int
	digest, want      string
	problems          []string
}

// gate checks the run's outputs: every operation on one input must
// yield the same digest (repeat runs and traced runs alike), the run's
// digest must match the committed reference at the default seed, and,
// for cluster-sweep, each input's merged figure must equal a sequential
// figure 5 computed here. Child-side checks arrive as report problems.
func gate(o options, ref *reference, units []unit) (gated, error) {
	var g gated
	fail := func(format string, args ...any) {
		g.failed++
		g.problems = append(g.problems, fmt.Sprintf(format, args...))
	}
	byInput := make([]string, inputsOf(o.workload))
	for _, u := range units {
		if u.rep == nil {
			continue // a boot-only child
		}
		g.attempted += u.rep.Attempted
		g.failed += u.rep.Failed
		g.problems = append(g.problems, u.rep.Problems...)
		switch first := byInput[u.input]; {
		case first == "":
			byInput[u.input] = u.rep.Digest
		case u.rep.Digest != first:
			fail("input %d: output digest %s (traced=%v) differs from the run's first %s", u.input, u.rep.Digest, u.traced, first)
		}
	}
	// One input: its digest. Several: a digest over theirs in order.
	g.digest = byInput[0]
	if len(byInput) > 1 {
		g.digest = digest([]byte(strings.Join(byInput, "\n")))
	}
	g.want = ref.want(o.workload, o.scale, o.seed)
	if g.want != "" && g.digest != g.want {
		fail("output digest %s does not match the committed reference %s", g.digest, g.want)
	}
	for i := 0; o.workload == "cluster-sweep" && i < len(byInput); i++ {
		f, err := core.Figure5(fig5Options(childConfig{seed: o.seed, sz: scales[o.scale], input: i}))
		if err != nil {
			return g, err
		}
		b, err := figureBytes(f)
		if err != nil {
			return g, err
		}
		if d := digest(b); d != byInput[i] {
			fail("input %d: cluster merged figure %s differs from the sequential figure 5 %s", i, byInput[i], d)
		}
	}
	sort.Strings(g.problems)
	return g, nil
}
