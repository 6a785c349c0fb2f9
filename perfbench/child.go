package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// Every measured operation runs in a fresh child process, so the
// process-wide caches (the collectives schedule memo, simcache) start
// cold as they do for a cesweep or cesimd user. The child boots its
// stack, prints readyLine (the parent times spawn-to-ready as set-up),
// runs, and prints one reportPrefix line.
const (
	readyLine    = "perfbench-ready"
	reportPrefix = "perfbench-report "
)

// sizes are the input sizes of every workload at one scale. "full" is
// the benchmark; "tiny" keeps the self-tests fast.
type sizes struct {
	// fig5-sweep and cluster-sweep: figure 5 on lulesh and hpcg.
	fig5Nodes, fig5Reps int
	// fig5Span is the simulated span per workload (0 = the figure
	// default, 1.5 s).
	fig5Span int64
	// fig8-saturation: fault-mix rows on minife.
	fig8Nodes, fig8Iters, fig8Reps int
	// daemon-simulate: simulate job size, ops per client per round,
	// and the tiny sweep jobs' size.
	simNodes, simIters, simReps int
	roundOps                    int
	sweepNodes, sweepIters      int
}

var scales = map[string]sizes{
	"full": {
		fig5Nodes: 128, fig5Reps: 1, fig5Span: 500e6,
		fig8Nodes: 32, fig8Iters: 1, fig8Reps: 1,
		simNodes: 16, simIters: 4, simReps: 2, roundOps: 64,
		sweepNodes: 8, sweepIters: 2,
	},
	"tiny": {
		fig5Nodes: 8, fig5Reps: 1, fig5Span: 50e6,
		fig8Nodes: 8, fig8Iters: 2, fig8Reps: 1,
		simNodes: 8, simIters: 2, simReps: 1, roundOps: 16,
		sweepNodes: 4, sweepIters: 1,
	},
}

// opSample is one measured operation: a sweep, or one daemon round.
type opSample struct {
	Wall   float64 `json:"wall_s"`
	Jobs   int     `json:"jobs"`
	SimOps int64   `json:"sim_ops"`
}

// report is what a child hands back to the parent.
type report struct {
	Ops []opSample `json:"ops"`
	// Latency holds request-to-result times in ms: one per sweep, or
	// one per daemon simulate job.
	Latency   []float64 `json:"latency_ms"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	// Digest is the canonical output's digest; Problems lists every
	// failed check (each also counted in Failed).
	Digest   string             `json:"digest"`
	Problems []string           `json:"problems,omitempty"`
	Layers   map[string]float64 `json:"layers,omitempty"`
	// PeakRSSMB is the process's peak resident memory when measurement
	// ended (before any verification work).
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

func (r *report) problem(format string, args ...any) {
	r.Failed++
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// stack is one booted workload.
type stack interface {
	run() (*report, error)
	close() error
}

// childConfig is what a child needs to boot and run its workload.
type childConfig struct {
	workload string
	seed     uint64
	sz       sizes
	trace    *tracer // nil when untraced
	window   time.Duration
	workDir  string
	// input selects one of the workload's inputs (see inputsOf).
	input int
}

func boot(c childConfig) (stack, error) {
	switch c.workload {
	case "fig5-sweep":
		return &fig5Stack{c: c, b: newBuilds(c.trace)}, nil
	case "fig8-saturation":
		return &fig8Stack{c: c, b: newBuilds(c.trace)}, nil
	case "cluster-sweep":
		return bootCluster(c)
	case "daemon-simulate":
		return bootDaemon(c)
	}
	return nil, fmt.Errorf("unknown workload %q", c.workload)
}

// childMain is the child process: boot, signal ready, run, report.
func childMain(args []string) error {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	workload := fs.String("workload", "", "")
	seed := fs.Uint64("seed", defaultSeed, "")
	scale := fs.String("scale", "full", "")
	traced := fs.Bool("trace", false, "")
	window := fs.Duration("window", 0, "")
	bootOnly := fs.Bool("boot-only", false, "")
	workDir := fs.String("work", "", "")
	input := fs.Int("input", 0, "")
	spans := fs.String("spans", "", "")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sz, ok := scales[*scale]
	if !ok {
		return fmt.Errorf("unknown scale %q", *scale)
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		return err
	}
	c := childConfig{workload: *workload, seed: *seed, sz: sz, window: *window, workDir: *workDir, input: *input}
	if *traced {
		c.trace = newTracer()
	}
	st, err := boot(c)
	if err != nil {
		return err
	}
	out := bufio.NewWriter(os.Stdout)
	fmt.Fprintln(out, readyLine)
	if err := out.Flush(); err != nil {
		return err
	}
	var rep *report
	if !*bootOnly {
		rep, err = st.run()
		if err == nil && rep.PeakRSSMB == 0 {
			rep.PeakRSSMB = peakRSSMB()
		}
	}
	if cerr := st.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if rep == nil {
		return nil
	}
	if c.trace != nil && *spans != "" {
		if err := writeSpans(c.trace, *spans); err != nil {
			return err
		}
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s%s\n", reportPrefix, b)
	return out.Flush()
}

// peakRSSMB returns the process's peak resident memory so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func writeSpans(tr *tracer, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := tr.writeJSONL(json.NewEncoder(w)); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
