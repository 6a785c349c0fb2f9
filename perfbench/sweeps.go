package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/collectives"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/journal"
	"repro/internal/noise"
	"repro/internal/server"
	"repro/internal/simcache"
	"repro/internal/stats"
	"repro/internal/systems"
)

// A sweep workload's run cycles through several seeds (an odd count,
// so a traced run that alternates untraced and traced sweeps covers
// every input both ways). In fig8-saturation about one trace seed in
// nine draws 12 to 50% more CE events before the guard trips; cycling
// keeps one such seed from setting a run's median, and it takes more
// seeds there for the heavy ones to make up a steady share of the run.
// fig5-sweep and cluster-sweep cycle the same seeds, so their figures
// stay byte-equal.
const (
	sweepInputs = 7
	fig8Inputs  = 13
)

// inputSeed is the seed of input i of a run at seed. Input 0 is the
// seed itself.
func inputSeed(seed uint64, i int) uint64 {
	return seed + uint64(i)<<32
}

// fig5Options is figure 5 on the engine-bound pair: lulesh
// (26-neighbour stencil) and hpcg (allreduce cadence), Poisson CE
// arrivals on every node.
func fig5Options(c childConfig) core.Options {
	return core.Options{
		Nodes:     c.sz.fig5Nodes,
		SpanNanos: c.sz.fig5Span,
		Reps:      c.sz.fig5Reps,
		Seed:      inputSeed(c.seed, c.input),
		Workloads: []string{"lulesh", "hpcg"},
	}
}

// writeFigure renders a figure the way campaign.RunContext does
// (.txt, .csv and .json) and returns the JSON artifact's bytes.
func writeFigure(dir, name string, f *core.Figure) (time.Duration, []byte, error) {
	start := time.Now()
	if err := campaign.WriteFigure(dir, name, f); err != nil {
		return 0, nil, err
	}
	d := time.Since(start)
	b, err := os.ReadFile(filepath.Join(dir, name+".json"))
	return d, b, err
}

// figureSimOps is the simulation work a figure requested, in expanded
// trace ops: every baseline built for it plus every repetition of
// every row, saturated or not (work a shortcut skips still counts).
func figureSimOps(f *core.Figure, b *builds, baselines int64) (int64, error) {
	total := baselines
	for _, r := range f.Rows {
		ops, ok := b.opsByRanks(r.Workload, r.Nodes)
		if !ok {
			return 0, fmt.Errorf("no baseline recorded for %s at %d ranks", r.Workload, r.Nodes)
		}
		total += ops * int64(r.Reps+r.SaturatedReps)
	}
	return total, nil
}

// sweepReport is the report of one measured sweep.
func sweepReport(f *core.Figure, out []byte, wall time.Duration, b *builds) (*report, error) {
	simOps, err := figureSimOps(f, b, b.baselineOps())
	if err != nil {
		return nil, err
	}
	return &report{
		Ops:       []opSample{{Wall: wall.Seconds(), Jobs: len(f.Rows), SimOps: simOps}},
		Latency:   []float64{float64(wall) / 1e6},
		Attempted: 1,
		Digest:    digest(out),
	}, nil
}

// buildLayers fills the baseline-construction layers from the split
// builder's spans, per measured unit.
func buildLayers(l map[string]float64, tr *tracer, units float64) {
	for _, m := range []struct{ span, busy, calls string }{
		{"tracegen.Generate", "tracegen.busy_s", "tracegen.calls"},
		{"collectives.Expand", "collectives.busy_s", "collectives.calls"},
		{"loggopsim.Simulate", "loggopsim.baseline_busy_s", "loggopsim.baseline_runs"},
	} {
		busy, n := tr.busy(m.span)
		l[m.busy] = busy / units
		l[m.calls] = float64(n) / units
	}
	cs := collectives.ScheduleCache()
	l["collectives.memo_hit_ratio"] = ratio(float64(cs.Hits+cs.Coalesced), float64(cs.Hits+cs.Coalesced+cs.Misses))
}

// repsSimulated counts the repetitions of a figure row that ran the
// engine: all of them, unless the row's load factor made core skip the
// simulation as analytically saturated.
func repsSimulated(r core.Row) int {
	if r.MTBCENanos > 0 && float64(r.PerEventNanos)/float64(r.MTBCENanos) >= 1 {
		return 0
	}
	return r.Reps + r.SaturatedReps
}

// driverLayers fills the perturbed-run layers of a figure driver call.
// The driver does not expose per-repetition calls, so repetition time
// is the driver's time outside baseline construction.
func driverLayers(l map[string]float64, f *core.Figure, b *builds, driver time.Duration) error {
	buildBusy, _ := b.tr.busy("core.build")
	busy := driver.Seconds() - buildBusy
	var reps, sat int
	var ops int64
	for _, r := range f.Rows {
		n := repsSimulated(r)
		o, ok := b.opsByRanks(r.Workload, r.Nodes)
		if !ok {
			return fmt.Errorf("no baseline recorded for %s at %d ranks", r.Workload, r.Nodes)
		}
		reps += n
		ops += o * int64(n)
		sat += r.SaturatedReps
	}
	l["core.reps_busy_s"] = busy
	l["core.reps_simulated"] = float64(reps)
	l["core.saturated_reps"] = float64(sat)
	l["core.ns_per_sim_op"] = ratio(busy*1e9, float64(ops))
	return nil
}

// fig5Stack runs figure 5 through the in-process core driver and
// renders it through campaign, as cesweep/reproduce do.
type fig5Stack struct {
	c childConfig
	b *builds
}

func (s *fig5Stack) close() error { return nil }

func (s *fig5Stack) run() (*report, error) {
	opts := fig5Options(s.c)
	opts.Experiments = s.b.build
	start := time.Now()
	f, err := core.Figure5(opts)
	if err != nil {
		return nil, err
	}
	driver := time.Since(start)
	write, out, err := writeFigure(s.c.workDir, "fig5", f)
	if err != nil {
		return nil, err
	}
	rep, err := sweepReport(f, out, time.Since(start), s.b)
	if err != nil || s.c.trace == nil {
		return rep, err
	}
	rep.Layers = map[string]float64{"campaign.write_busy_s": write.Seconds()}
	buildLayers(rep.Layers, s.c.trace, 1)
	return rep, driverLayers(rep.Layers, f, s.b, driver)
}

// fig8 constants mirror core.Figure8: the fault-mix figures run at an
// aggregate per-node MTBCE of 3.6 s before scale compensation against
// a 16384-node exascale system.
const (
	fig8MTBCE      = int64(3600e6)
	fig8PaperNodes = 16384
	// fig8CESeed is the CE seed of every row (Figure8 uses Seed+1 at
	// the default seed). It is fixed, not drawn from --seed: which node
	// draws the heaviest DIMM skew decides how long the saturating row
	// runs before its guard trips (5 to 17 s at 24 nodes across five
	// CE seeds), so a seeded CE stream would make the workload's size,
	// not the program, set the spread. --seed varies the trace (see
	// inputSeed).
	fig8CESeed = 2
)

// fig8Mixes are the figure-8 compositions measured. high-altitude is
// field-ddr4 at 4x flux: the same saturation mechanism at twice the
// cost, left out to keep a sweep short enough to repeat in one run.
func fig8Mixes() []systems.FaultMix {
	var out []systems.FaultMix
	for _, m := range systems.FaultMixes() {
		if m.Name != "high-altitude" {
			out = append(out, m)
		}
	}
	return out
}

// fig8Stack runs figure-8 fault-mix rows on minife directly through
// core.Experiment, so each repetition's RunResult (CE events,
// saturation) is visible. At the full scale field-ddr4 x software-CMCI
// passes the load check and saturates only inside the simulation; the
// other rows run to completion or saturate analytically.
type fig8Stack struct {
	c childConfig
	b *builds
}

func (s *fig8Stack) close() error { return nil }

func (s *fig8Stack) run() (*report, error) {
	sz := s.c.sz
	start := time.Now()
	e, err := s.b.build(core.ExperimentConfig{
		Workload: "minife", Nodes: sz.fig8Nodes, Iterations: sz.fig8Iters, TraceSeed: inputSeed(s.c.seed, s.c.input),
	})
	if err != nil {
		return nil, err
	}
	// Scale compensation exactly as core's compensateMTBCE computes it.
	mtbce := int64(float64(fig8MTBCE) * (float64(sz.fig8Nodes) / float64(fig8PaperNodes)))
	f := &core.Figure{ID: "fig8", Title: "application overhead vs fault-mix composition"}
	var repsBusy time.Duration
	var simulated, saturated int
	var simOps int64
	var ceEvents uint64
	var taps []*noiseTap
	ops := int64(e.Prepared().Expanded.NumOps())
	for _, mix := range fig8Mixes() {
		for _, mode := range systems.LoggingModes() {
			proc, err := mix.Spec.WithMTBCE(mtbce).Process()
			if err != nil {
				return nil, err
			}
			var arr noise.Arrivals = proc
			if s.c.trace != nil {
				tap := &noiseTap{}
				taps = append(taps, tap)
				arr = tapArrivals(proc, tap)
			}
			row := core.Row{Workload: "minife", System: mix.Name, Mode: mode.Name,
				PerEventNanos: mode.PerEventNanos, MTBCENanos: mtbce, Nodes: e.Ranks()}
			var sample stats.Sample
			for i := 0; i < sz.fig8Reps; i++ {
				sc := core.Scenario{MTBCE: mtbce, Arrivals: arr, PerEvent: noise.Fixed(mode.PerEventNanos),
					Target: noise.AllNodes, Seed: fig8CESeed + uint64(i)}
				t := time.Now()
				res, err := e.Run(sc)
				repsBusy += time.Since(t)
				if err != nil {
					return nil, err
				}
				if res.Perturbed != nil {
					simulated++
				}
				ceEvents += res.CEEvents
				if res.Saturated {
					row.SaturatedReps++
					saturated++
				} else {
					sample.Add(res.SlowdownPct)
				}
			}
			simOps += ops * int64(sz.fig8Reps)
			// Row aggregation as core's runRow does it.
			row.Reps = sample.N()
			row.MeanPct = sample.Mean()
			row.CI95Pct = sample.CI95()
			row.Saturated = row.SaturatedReps > 0 && sample.N() == 0
			f.Rows = append(f.Rows, row)
		}
	}
	write, out, err := writeFigure(s.c.workDir, "fig8", f)
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)
	rep := &report{
		Ops:       []opSample{{Wall: wall.Seconds(), Jobs: len(f.Rows), SimOps: simOps + ops}},
		Latency:   []float64{float64(wall) / 1e6},
		Attempted: 1,
		Digest:    digest(out),
	}
	if s.c.trace == nil {
		return rep, nil
	}
	l := map[string]float64{"campaign.write_busy_s": write.Seconds()}
	buildLayers(l, s.c.trace, 1)
	l["core.reps_busy_s"] = repsBusy.Seconds()
	l["core.reps_simulated"] = float64(simulated)
	l["core.saturated_reps"] = float64(saturated)
	l["core.ns_per_sim_op"] = ratio(float64(repsBusy), float64(ops*int64(simulated)))
	var noiseBusy time.Duration
	var gaps int64
	for _, t := range taps {
		noiseBusy += t.busy
		gaps += t.gaps
	}
	l["noise.busy_s"] = noiseBusy.Seconds()
	l["noise.gaps_drawn"] = float64(gaps)
	l["noise.ce_events"] = float64(ceEvents)
	l["noise.events_per_gap"] = ratio(float64(ceEvents), float64(gaps))
	s.c.trace.record(span{ID: "fig8", Name: "noise.gaps", Start: 0, End: int64(noiseBusy),
		Attrs: map[string]int64{"gaps": gaps, "ce_events": int64(ceEvents)}})
	rep.Layers = l
	return rep, nil
}

// clusterStack is an in-process cluster: a coordinator with a journal
// behind the cesimd middleware, two workers each with its own jobs
// queue and baseline cache, and a cluster.Client, all at the settings
// cesimd and `cesweep -cluster` use by default.
type clusterStack struct {
	c  childConfig
	b  *builds
	jw *journal.Writer
	jt *journalTap

	coord   *cluster.Coordinator
	hs      *httptest.Server
	queues  []*jobs.Queue
	caches  []*simcache.Cache
	cancel  context.CancelFunc
	workers sync.WaitGroup
	client  *cluster.Client
	polls   *atomic.Int64
}

const clusterWorkers = 2

func bootCluster(c childConfig) (_ *clusterStack, err error) {
	s := &clusterStack{c: c, b: newBuilds(c.trace), polls: new(atomic.Int64)}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	s.jw, err = journal.Open(filepath.Join(c.workDir, "cluster-wal"), journal.Options{})
	if err != nil {
		return nil, err
	}
	var app jobs.Appender = s.jw
	if c.trace != nil {
		s.jt = newJournalTap(s.jw, c.trace)
		app = s.jt
	}
	s.coord = cluster.NewCoordinator(cluster.Config{Journal: app})
	cq := jobs.New(jobs.Config{Workers: 1})
	s.queues = append(s.queues, cq)
	srv, err := server.New(server.Config{Queue: cq, Cache: simcache.New(0), Routes: s.coord.Routes()})
	if err != nil {
		return nil, err
	}
	s.hs = httptest.NewServer(srv)
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	var watches []*leaseWatch
	for i := 0; i < clusterWorkers; i++ {
		q := jobs.New(jobs.Config{Workers: 1})
		cache := simcache.New(0)
		cache.SetBuilder(s.b.build)
		s.queues = append(s.queues, q)
		s.caches = append(s.caches, cache)
		lw := &leaseWatch{base: http.DefaultTransport}
		watches = append(watches, lw)
		var rt http.RoundTripper = lw
		if c.trace != nil {
			rt = &httpTap{base: lw, tr: c.trace}
		}
		// The worker's default client, with the transport wrapped.
		w, err := cluster.NewWorker(cluster.WorkerConfig{Coordinator: s.hs.URL, Addr: fmt.Sprintf("bench-worker-%d", i),
			Queue: q, Cache: cache, HTTPClient: &http.Client{Timeout: 30 * time.Second, Transport: rt}})
		if err != nil {
			return nil, err
		}
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			_ = w.Run(ctx) // returns ctx.Err() when close cancels it
		}()
	}
	s.client = &cluster.Client{Base: s.hs.URL}
	if c.trace != nil {
		s.client.HTTPClient = &http.Client{Timeout: 30 * time.Second,
			Transport: &httpTap{base: http.DefaultTransport, tr: c.trace, gets: s.polls}}
	}
	// Ready once every worker has registered and found no work: the
	// first sweep then waits out one lease-poll interval on every
	// worker, every time, instead of racing their first polls.
	deadline := time.Now().Add(30 * time.Second)
	for _, lw := range watches {
		for lw.polls.Load() == 0 {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("cluster: workers did not register and poll")
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	return s, nil
}

// leaseWatch counts a worker's answered lease polls.
type leaseWatch struct {
	base  http.RoundTripper
	polls atomic.Int64
}

func (l *leaseWatch) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := l.base.RoundTrip(req)
	if err == nil && strings.HasSuffix(req.URL.Path, "/cluster/lease") {
		l.polls.Add(1)
	}
	return resp, err
}

func (s *clusterStack) close() error {
	if s.cancel != nil {
		s.cancel()
	}
	s.workers.Wait()
	if s.hs != nil {
		s.hs.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var err error
	for _, q := range s.queues {
		if derr := q.Drain(ctx); err == nil {
			err = derr
		}
	}
	if s.jw != nil {
		if cerr := s.jw.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

func (s *clusterStack) run() (*report, error) {
	start := time.Now()
	f, err := s.client.Figure(context.Background(), "5", fig5Options(s.c))
	if err != nil {
		return nil, err
	}
	_, out, err := writeFigure(s.c.workDir, "fig5", f)
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)
	rep, err := sweepReport(f, out, wall, s.b)
	if err != nil {
		return nil, err
	}
	st := s.coord.StatusSnapshot()
	rep.Attempted += int(st.Grants)
	rep.Failed += int(st.FailedAttempts)
	if st.FailedAttempts > 0 {
		rep.Problems = append(rep.Problems, fmt.Sprintf("cluster: %d failed shard attempts", st.FailedAttempts))
	}
	if s.c.trace == nil {
		return rep, nil
	}
	l := map[string]float64{}
	buildLayers(l, s.c.trace, 1)
	var busy, slowest float64
	for _, c := range s.jt.cellBusy() {
		busy += c
		slowest = max(slowest, c)
	}
	if err := driverLayers(l, f, s.b, time.Duration(busy*1e9)); err != nil {
		return nil, err
	}
	cacheLayers(l, s.c.trace, s.caches, nil, 1)
	journalLayers(l, s.c.trace, s.jw, 1)
	for _, q := range s.queues {
		qs := q.Stats()
		l["jobs.rejected"] += float64(qs.Rejected)
		l["jobs.retries"] += float64(qs.Retries)
	}
	l["server.http_p50_ms"] = median(s.c.trace.durations("server.http"))
	l["server.polls_per_job"] = float64(s.polls.Load())
	l["cluster.grants"] = float64(st.Grants)
	l["cluster.reassignments"] = float64(st.Reassignments)
	l["cluster.failed_attempts"] = float64(st.FailedAttempts)
	l["cluster.cell_busy_max_s"] = slowest
	l["cluster.worker_idle_frac"] = 1 - ratio(busy, clusterWorkers*wall.Seconds())
	rep.Layers = l
	return rep, nil
}

// cacheLayers fills the simcache layer from cache and store stats and
// the builder spans the caches' misses ran.
func cacheLayers(l map[string]float64, tr *tracer, caches []*simcache.Cache, store *simcache.Store, units float64) {
	var hits, coalesced, misses uint64
	for _, c := range caches {
		cs := c.Stats()
		hits += cs.Hits
		coalesced += cs.Coalesced
		misses += cs.Misses
	}
	l["simcache.hit_ratio"] = ratio(float64(hits+coalesced), float64(hits+coalesced+misses))
	l["simcache.builds"] = float64(misses) / units
	l["simcache.coalesced"] = float64(coalesced) / units
	buildBusy, _ := tr.busy("core.build")
	l["simcache.build_busy_s"] = buildBusy / units
	if store != nil {
		ss := store.Stats()
		l["simcache.store_puts"] = float64(ss.Puts) / units
		l["simcache.store_hits"] = float64(ss.Hits) / units
	}
}

// journalLayers fills the journal layer from the append spans and the
// writer's own counters.
func journalLayers(l map[string]float64, tr *tracer, w *journal.Writer, units float64) {
	busy, n := tr.busy("journal.Append")
	ws := w.Stats()
	l["journal.append_busy_s"] = busy / units
	l["journal.appends"] = float64(n) / units
	l["journal.syncs"] = float64(ws.Syncs) / units
	l["journal.bytes"] = float64(tr.attrSum("journal.Append", "bytes")) / units
}
