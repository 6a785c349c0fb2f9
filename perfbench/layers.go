package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collectives"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/loggopsim"
	"repro/internal/noise"
	"repro/internal/rng"
	"repro/internal/tracegen"
)

// This file holds every interposition point the benchmark uses. Each
// one sits on a public hook of the program (a builder field, an
// Appender, an Arrivals value, an http.RoundTripper) and times the
// call into the layer from outside; nothing inside the program is
// instrumented. All timings are host wall-clock time.

// span is one timed call into a layer. Spans of one request or build
// share an ID; Parent indexes the enclosing span (-1 for a root).
type span struct {
	ID     string           `json:"id"`
	Parent int              `json:"parent"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the process writes them out. A
// nil *tracer records nothing, so untraced runs pay only a nil check.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	nextID int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID returns a fresh identifier for one build.
func (t *tracer) newID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return fmt.Sprintf("build-%d", t.nextID)
}

// begin opens a span and returns its index for end.
func (t *tracer) begin(name, id string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now, End: now})
	return len(t.spans) - 1
}

// end closes span i, attaching attrs (which may be nil).
func (t *tracer) end(i int, attrs map[string]int64) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = now
	t.spans[i].Attrs = attrs
}

// record appends an already measured span (for aggregates such as the
// noise draws of one repetition, timed as many short calls).
func (t *tracer) record(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.Parent = -1
	t.spans = append(t.spans, s)
}

// since returns nanoseconds since the tracer started.
func (t *tracer) since() int64 { return time.Since(t.t0).Nanoseconds() }

// busy sums the durations and counts the spans of one name.
func (t *tracer) busy(name string) (seconds float64, count int) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.End - s.Start
			count++
		}
	}
	return float64(ns) / 1e9, count
}

// attrSum sums one attribute over the spans of one name.
func (t *tracer) attrSum(name, attr string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum int64
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.Attrs[attr]
		}
	}
	return sum
}

// durations returns the durations in milliseconds of the spans of one
// name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(enc *json.Encoder) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// builds is the experiment builder every workload installs: on
// core.Options.Experiments for the figure drivers and on
// simcache.Cache.SetBuilder for the daemon and cluster workers. It
// records the expanded-trace size of each baseline it builds (work
// counted by sim_ops_per_s) and, when tracing, splits the build into
// its three layers.
type builds struct {
	tr *tracer

	mu      sync.Mutex
	ops     map[string]int64 // expanded ops by configKey
	byRanks map[string]int64 // expanded ops by workload and rank count
	built   int64            // expanded ops of every baseline built
}

func newBuilds(tr *tracer) *builds {
	return &builds{tr: tr, ops: map[string]int64{}, byRanks: map[string]int64{}}
}

// configKey names a baseline: everything NewExperiment's output
// depends on for the configs the benchmark generates.
func configKey(cfg core.ExperimentConfig) string {
	return fmt.Sprintf("%s/%d/%d/%d", cfg.Workload, cfg.Nodes, cfg.Iterations, cfg.TraceSeed)
}

// opsOf returns the expanded op count recorded for cfg.
func (b *builds) opsOf(cfg core.ExperimentConfig) (int64, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	n, ok := b.ops[configKey(cfg)]
	return n, ok
}

// opsByRanks returns the op count of the single recorded baseline
// of a workload at the given rank count (figure rows carry ranks, not
// the requested node count).
func (b *builds) opsByRanks(workload string, ranks int) (int64, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	n, ok := b.byRanks[fmt.Sprintf("%s/%d", workload, ranks)]
	return n, ok
}

// baselineOps returns the expanded ops of every baseline built so far.
func (b *builds) baselineOps() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.built
}

func (b *builds) note(cfg core.ExperimentConfig, exp *core.Experiment) {
	n := int64(exp.Prepared().Expanded.NumOps())
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ops[configKey(cfg)] = n
	b.built += n
	b.byRanks[fmt.Sprintf("%s/%d", cfg.Workload, exp.Ranks())] = n
}

// build constructs an experiment. Untraced it is core.NewExperiment;
// traced it times tracegen.Generate, collectives.Expand and
// loggopsim.Simulate separately and assembles the same experiment with
// core.NewExperimentFromBaseline (the self-tests prove the two agree
// down to per-rank finish times).
func (b *builds) build(cfg core.ExperimentConfig) (*core.Experiment, error) {
	var exp *core.Experiment
	var err error
	if b.tr == nil {
		exp, err = core.NewExperiment(cfg)
	} else {
		exp, err = splitBuild(b.tr, cfg)
	}
	if err != nil {
		return nil, err
	}
	b.note(cfg, exp)
	return exp, nil
}

// splitBuild is core.NewExperiment step by step, one span per layer.
func splitBuild(tr *tracer, cfg core.ExperimentConfig) (*core.Experiment, error) {
	if cfg.Nodes < 2 || cfg.Iterations < 1 {
		return core.NewExperiment(cfg) // reports the validation error
	}
	cfg = cfg.Canonical()
	id := tr.newID()
	root := tr.begin("core.build", id, -1)
	ranks := tracegen.PreferredRanks(cfg.Workload, cfg.Nodes)

	s := tr.begin("tracegen.Generate", id, root)
	t, err := tracegen.Generate(cfg.Workload, ranks, cfg.Iterations, cfg.TraceSeed)
	tr.end(s, nil)
	if err != nil {
		return nil, err
	}
	ccfg := cfg.Collectives
	ccfg.DisableMemo = ccfg.DisableMemo || cfg.Engine.DirectExpansion
	s = tr.begin("collectives.Expand", id, root)
	ex, err := collectives.Expand(t, ccfg)
	tr.end(s, nil)
	if err != nil {
		return nil, err
	}
	s = tr.begin("loggopsim.Simulate", id, root)
	base, err := loggopsim.Simulate(ex, loggopsim.Config{Net: cfg.Net, ShadowQueue: cfg.Engine.ShadowQueue})
	tr.end(s, map[string]int64{"ops": int64(ex.NumOps())})
	if err != nil {
		return nil, fmt.Errorf("core: baseline simulation: %w", err)
	}
	exp, err := core.NewExperimentFromBaseline(cfg, core.Baseline{Expanded: ex, Result: base, Ranks: ranks})
	tr.end(root, nil)
	return exp, err
}

// journalTap is the jobs.Appender / cluster journal hook around a
// journal.Writer: every append is a span, and the coordinator's lease
// and shard_done records are read back for per-cell busy time.
type journalTap struct {
	w  *journal.Writer
	tr *tracer

	mu     sync.Mutex
	leased map[string]int64 // shard key -> lease time (tracer ns)
	cells  []float64        // lease-to-done seconds per finished cell
}

func newJournalTap(w *journal.Writer, tr *tracer) *journalTap {
	return &journalTap{w: w, tr: tr, leased: map[string]int64{}}
}

// Append implements jobs.Appender.
func (j *journalTap) Append(ctx context.Context, payload []byte) error {
	s := j.tr.begin("journal.Append", "", -1)
	err := j.w.Append(ctx, payload)
	j.tr.end(s, map[string]int64{"bytes": int64(len(payload))})
	var rec struct {
		Op      string `json:"op"`
		SweepID string `json:"sweep_id"`
		Key     string `json:"key"`
	}
	if json.Unmarshal(payload, &rec) == nil && rec.Key != "" {
		k := rec.SweepID + "/" + rec.Key
		now := j.tr.since()
		j.mu.Lock()
		switch rec.Op {
		case "lease":
			j.leased[k] = now
		case "shard_done":
			if t, ok := j.leased[k]; ok {
				j.cells = append(j.cells, float64(now-t)/1e9)
				delete(j.leased, k)
			}
		}
		j.mu.Unlock()
	}
	return err
}

// cellBusy returns the lease-to-done time of every finished cell.
func (j *journalTap) cellBusy() []float64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]float64(nil), j.cells...)
}

// noiseTap accumulates host time and gap counts of one arrival
// process. The simulator draws arrivals from a single goroutine, so
// the counters need no lock.
type noiseTap struct {
	busy time.Duration
	gaps int64
}

// tapArrivals wraps an arrival process so every gap draw is timed. The
// wrapper implements noise.GapBatcher and noise.ComponentGapper exactly
// when the wrapped process does, so batching and the saturation guard
// behave as they do unwrapped.
func tapArrivals(a noise.Arrivals, t *noiseTap) noise.Arrivals {
	base := &tappedArrivals{a: a, t: t}
	b, batches := a.(noise.GapBatcher)
	g, gapper := a.(noise.ComponentGapper)
	switch {
	case batches && gapper:
		return &tappedBatcherGapper{tappedArrivals: base, b: b, g: g}
	case batches:
		return &tappedBatcher{tappedArrivals: base, b: b}
	case gapper:
		return &tappedGapper{tappedArrivals: base, g: g}
	}
	return base
}

type tappedArrivals struct {
	a noise.Arrivals
	t *noiseTap
}

func (w *tappedArrivals) NextGap(src *rng.Source, state *uint64) int64 {
	start := time.Now()
	g := w.a.NextGap(src, state)
	w.t.busy += time.Since(start)
	w.t.gaps++
	return g
}

func (w *tappedArrivals) MeanGap() float64 { return w.a.MeanGap() }
func (w *tappedArrivals) String() string   { return w.a.String() }

func (w *tappedArrivals) appendGaps(b noise.GapBatcher, dst []int64, src *rng.Source, state *uint64, n int) []int64 {
	start := time.Now()
	out := b.AppendGaps(dst, src, state, n)
	w.t.busy += time.Since(start)
	w.t.gaps += int64(len(out) - len(dst))
	return out
}

type tappedBatcher struct {
	*tappedArrivals
	b noise.GapBatcher
}

func (w *tappedBatcher) AppendGaps(dst []int64, src *rng.Source, state *uint64, n int) []int64 {
	return w.appendGaps(w.b, dst, src, state, n)
}

type tappedGapper struct {
	*tappedArrivals
	g noise.ComponentGapper
}

func (w *tappedGapper) MaxComponentMeanGap() float64 { return w.g.MaxComponentMeanGap() }

type tappedBatcherGapper struct {
	*tappedArrivals
	b noise.GapBatcher
	g noise.ComponentGapper
}

func (w *tappedBatcherGapper) AppendGaps(dst []int64, src *rng.Source, state *uint64, n int) []int64 {
	return w.appendGaps(w.b, dst, src, state, n)
}

func (w *tappedBatcherGapper) MaxComponentMeanGap() float64 { return w.g.MaxComponentMeanGap() }

// httpTap times every HTTP round trip a client makes as a
// "server.http" span keyed by the request's X-Request-Id, so the
// submit and the polls of one job share an id.
type httpTap struct {
	base http.RoundTripper
	tr   *tracer
	// gets, when set, counts GET requests: the status polls of a
	// client that only reads to poll.
	gets *atomic.Int64
}

func (h *httpTap) RoundTrip(req *http.Request) (*http.Response, error) {
	if h.gets != nil && req.Method == http.MethodGet {
		h.gets.Add(1)
	}
	s := h.tr.begin("server.http", req.Header.Get("X-Request-Id"), -1)
	resp, err := h.base.RoundTrip(req)
	h.tr.end(s, nil)
	return resp, err
}
