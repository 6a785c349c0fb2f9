package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/journal"
	"repro/internal/noise"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/simcache"
	"repro/internal/systems"
)

// daemon-simulate: an in-process cesimd stack (jobs WAL, queue,
// baseline cache, result store, HTTP server) on loopback, driven by
// two closed-loop clients. Each client waits for a job to reach a
// terminal state before submitting the next, as cesimd callers do.
//
// Per client, every block of 16 operations is 13 simulate jobs on a
// small hot set (cache hits), 2 simulate jobs on a fresh trace seed
// (baseline cache misses: 1 in 8 operations) and 1 tiny figure-4 sweep
// that alternates between a repeat (served from the result store) and
// a fresh seed (computed, then stored with an fsync).
const (
	daemonClients = 2
	daemonWorkers = 2
	// pollEvery is the client's status poll period.
	pollEvery = 200 * time.Microsecond
	// hotMTBCE keeps every logging mode below the analytic saturation
	// load (firmware-emca's 133 ms per CE is 0.67 of it), so each job
	// simulates its repetitions.
	hotMTBCE = int64(200e6)
	// daemonCacheBytes bounds the baseline cache (cesimd -cache-mb 64)
	// so the stream of fresh-seed baselines reaches the bound within
	// seconds: memory then plateaus instead of growing with the run's
	// throughput, and the misses keep evicting.
	daemonCacheBytes = 64 << 20
)

var (
	daemonWorkloads = []string{"minife", "lulesh", "hpcg"}
	daemonModes     = []string{"hardware-only", "software-cmci", "firmware-emca"}
)

// stripped are the simulate result fields that measure the run (wall
// time, cache state) rather than the simulation; the gate ignores them.
var stripped = []string{"cache_hit", "cache_bypassed", "baseline_wall_ns", "scenarios_wall_ns"}

type daemonOp struct {
	kind string // "simulate" or "sweep"
	body []byte
}

// jobView is the part of a job snapshot the clients read.
type jobView struct {
	State    jobs.State      `json:"state"`
	Error    string          `json:"error"`
	Created  time.Time       `json:"created"`
	Started  *time.Time      `json:"started"`
	Finished *time.Time      `json:"finished"`
	Result   json.RawMessage `json:"result"`
}

type daemonStack struct {
	c     childConfig
	b     *builds
	jw    *journal.Writer
	store *simcache.Store
	queue *jobs.Queue
	cache *simcache.Cache
	hs    *httptest.Server
	hc    [daemonClients]*http.Client
}

func bootDaemon(c childConfig) (_ *daemonStack, err error) {
	s := &daemonStack{c: c, b: newBuilds(c.trace)}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	s.jw, err = journal.Open(filepath.Join(c.workDir, "jobs-wal"), journal.Options{})
	if err != nil {
		return nil, err
	}
	s.store, err = simcache.OpenStore(filepath.Join(c.workDir, "store"))
	if err != nil {
		return nil, err
	}
	var app jobs.Appender = s.jw
	if c.trace != nil {
		app = newJournalTap(s.jw, c.trace)
	}
	// cesimd's defaults, with the worker count pinned to the two CPUs
	// the benchmark is sized for.
	s.queue = jobs.New(jobs.Config{Workers: daemonWorkers, Capacity: 64, Timeout: 15 * time.Minute, Retain: 512, Journal: app})
	s.cache = simcache.New(daemonCacheBytes)
	s.cache.SetBuilder(s.b.build)
	srv, err := server.New(server.Config{Queue: s.queue, Cache: s.cache, ResultStore: s.store, Journal: s.jw})
	if err != nil {
		return nil, err
	}
	s.hs = httptest.NewServer(srv)
	for i := range s.hc {
		var rt http.RoundTripper = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		if c.trace != nil {
			rt = &httpTap{base: rt, tr: c.trace}
		}
		s.hc[i] = &http.Client{Timeout: 60 * time.Second, Transport: rt}
	}
	resp, err := s.hc[0].Get(s.hs.URL + "/healthz")
	if err != nil {
		return nil, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("daemon: healthz answered %s", resp.Status)
	}
	return s, nil
}

func (s *daemonStack) close() error {
	if s.hs != nil {
		s.hs.Close()
	}
	for _, hc := range s.hc {
		if hc != nil {
			hc.CloseIdleConnections()
		}
	}
	var err error
	if s.queue != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = s.queue.Drain(ctx)
		cancel()
	}
	if s.jw != nil {
		if cerr := s.jw.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// uniqueSeed derives a seed no other operation of the run uses.
func (s *daemonStack) uniqueSeed(client, k int) uint64 {
	return 1 + rng.Mix64(s.c.seed^uint64(client)<<40^uint64(k)<<1)%(1<<40)
}

// op returns operation k (counted across rounds) of a client.
func (s *daemonStack) op(client, k int) daemonOp {
	sz := s.c.sz
	hotSeed := s.c.seed
	if hotSeed == 0 {
		hotSeed = 1 // the server reads seed 0 as 1; send what it runs
	}
	switch {
	case k%16 == 15:
		seed := hotSeed
		if (k/16)%2 == 1 {
			seed = s.uniqueSeed(client, k)
		}
		return daemonOp{kind: "sweep", body: mustJSON(server.SweepRequest{
			Figure: "4", Nodes: sz.sweepNodes, Iters: sz.sweepIters, Reps: 1, Seed: seed,
			Workloads: []string{"minife"},
		})}
	case k%8 == 3:
		return s.simulate(daemonWorkloads[k%3], daemonModes[(k/3)%3], s.uniqueSeed(client, k))
	}
	i := (k*7 + client*3) % (len(daemonWorkloads) * len(daemonModes))
	return s.simulate(daemonWorkloads[i%3], daemonModes[i/3], hotSeed)
}

func (s *daemonStack) simulate(workload, mode string, seed uint64) daemonOp {
	sz := s.c.sz
	return daemonOp{kind: "simulate", body: mustJSON(server.SimulateRequest{
		Workload: workload, Nodes: sz.simNodes, Iters: sz.simIters, MTBCENanos: hotMTBCE,
		Mode: mode, Seed: seed, Reps: sz.simReps,
	})}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types always marshal
	}
	return b
}

// outcome is one finished operation as a client saw it.
type outcome struct {
	op      daemonOp
	latency time.Duration
	polls   int
	view    jobView
	err     error
}

// call submits one operation and polls it to a terminal state.
func (s *daemonStack) call(hc *http.Client, op daemonOp, rid string) outcome {
	o := outcome{op: op}
	start := time.Now()
	var sub struct {
		ID string `json:"id"`
	}
	if o.err = s.do(hc, http.MethodPost, "/v1/"+op.kind, op.body, rid, http.StatusAccepted, &sub); o.err != nil {
		return o
	}
	for {
		o.polls++
		if o.err = s.do(hc, http.MethodGet, "/v1/jobs/"+sub.ID, nil, rid, http.StatusOK, &o.view); o.err != nil {
			return o
		}
		if o.view.State.Terminal() {
			o.latency = time.Since(start)
			if o.view.State != jobs.Succeeded {
				o.err = fmt.Errorf("job %s %s: %s", sub.ID, o.view.State, o.view.Error)
			}
			return o
		}
		time.Sleep(pollEvery)
	}
}

func (s *daemonStack) do(hc *http.Client, method, path string, body []byte, rid string, want int, out any) error {
	req, err := http.NewRequest(method, s.hs.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set(server.RequestIDHeader, rid)
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, out)
}

// canonical returns the gated form of a job result: a simulate result
// without its run-measuring fields, or a sweep's figure re-rendered
// through Figure.WriteJSON.
func canonical(kind string, raw []byte) ([]byte, error) {
	if kind == "sweep" {
		f, err := core.ReadFigureJSON(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		return figureBytes(f)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, err
	}
	for _, k := range stripped {
		delete(m, k)
	}
	return json.Marshal(m)
}

func (s *daemonStack) run() (*report, error) {
	rep := &report{}
	results := map[string][]byte{} // canonical result by request body
	var round0 []byte
	var rounds [][]daemonOp
	var wait, runMs []float64
	var scenarios time.Duration
	var repsRun, satReps, polls, jobsDone int
	start := time.Now()
	for r := 0; r == 0 || time.Since(start) < s.c.window; r++ {
		roundStart := time.Now()
		outs := make([][]outcome, daemonClients)
		var wg sync.WaitGroup
		for c := 0; c < daemonClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < s.c.sz.roundOps; i++ {
					k := r*s.c.sz.roundOps + i
					outs[c] = append(outs[c], s.call(s.hc[c], s.op(c, k), fmt.Sprintf("c%d-op%d", c, k)))
				}
			}(c)
		}
		wg.Wait()
		wall := time.Since(roundStart)
		var done []daemonOp
		for _, co := range outs {
			for _, o := range co {
				rep.Attempted++
				polls += o.polls
				if o.err != nil {
					rep.problem("%s %s: %v", o.op.kind, o.op.body, o.err)
					continue
				}
				jobsDone++
				done = append(done, o.op)
				v := o.view
				if v.Started != nil && v.Finished != nil {
					wait = append(wait, float64(v.Started.Sub(v.Created))/1e6)
					runMs = append(runMs, float64(v.Finished.Sub(*v.Started))/1e6)
				}
				canon, err := canonical(o.op.kind, v.Result)
				if err != nil {
					rep.problem("%s %s: undecodable result: %v", o.op.kind, o.op.body, err)
					continue
				}
				if prev, ok := results[string(o.op.body)]; ok && !bytes.Equal(prev, canon) {
					rep.problem("%s %s: result differs between repeats", o.op.kind, o.op.body)
				}
				results[string(o.op.body)] = canon
				if r == 0 {
					round0 = append(append(round0, canon...), '\n')
				}
				if o.op.kind == "simulate" {
					rep.Latency = append(rep.Latency, float64(o.latency)/1e6)
					var sr server.SimulateResult
					if err := json.Unmarshal(v.Result, &sr); err == nil {
						scenarios += time.Duration(sr.ScenariosNanos)
						satReps += sr.SaturatedReps
						repsRun += sr.Reps
					}
				}
			}
		}
		rounds = append(rounds, done)
		rep.Ops = append(rep.Ops, opSample{Wall: wall.Seconds(), Jobs: len(done)})
	}
	rep.Digest = digest(round0)
	rep.PeakRSSMB = peakRSSMB()
	units := float64(len(rounds))

	if s.c.trace != nil {
		l := map[string]float64{}
		buildLayers(l, s.c.trace, units)
		var simOps float64
		for _, ops := range rounds {
			for _, op := range ops {
				if op.kind == "simulate" {
					n, _ := s.b.opsOf(simConfig(op))
					simOps += float64(n * int64(s.c.sz.simReps))
				}
			}
		}
		l["core.reps_busy_s"] = scenarios.Seconds() / units
		l["core.reps_simulated"] = float64(repsRun) / units
		l["core.saturated_reps"] = float64(satReps) / units
		l["core.ns_per_sim_op"] = ratio(float64(scenarios), simOps)
		cacheLayers(l, s.c.trace, []*simcache.Cache{s.cache}, s.store, units)
		journalLayers(l, s.c.trace, s.jw, units)
		qs := s.queue.Stats()
		l["jobs.wait_p50_ms"] = median(wait)
		l["jobs.wait_p99_ms"] = tail(wait)
		l["jobs.run_p50_ms"] = median(runMs)
		l["jobs.rejected"] = float64(qs.Rejected) / units
		l["jobs.retries"] = float64(qs.Retries) / units
		l["server.http_p50_ms"] = median(s.c.trace.durations("server.http"))
		l["server.polls_per_job"] = ratio(float64(polls), float64(rep.Attempted))
		rep.Layers = l
	}

	// Gate: every distinct request's result must equal a direct
	// computation through core, which also sizes each request's work.
	work, err := verifyDaemon(results, rep)
	if err != nil {
		return nil, err
	}
	for i, ops := range rounds {
		for _, op := range ops {
			rep.Ops[i].SimOps += work[string(op.body)]
		}
	}
	return rep, nil
}

func simConfig(op daemonOp) core.ExperimentConfig {
	var req server.SimulateRequest
	_ = json.Unmarshal(op.body, &req) // built by op from the same type
	return core.ExperimentConfig{Workload: req.Workload, Nodes: req.Nodes, Iterations: req.Iters, TraceSeed: req.Seed}
}

// verifyDaemon recomputes every distinct request directly through
// core, records a problem for each result that differs, and returns
// each request's simulation work in expanded ops (baseline included
// whether or not the cache served it).
func verifyDaemon(results map[string][]byte, rep *report) (map[string]int64, error) {
	work := map[string]int64{}
	check := func(body string, want []byte) {
		if !bytes.Equal(results[body], want) {
			rep.problem("daemon result for %s differs from the direct core computation", body)
		}
	}
	byConfig := map[string][]string{} // simulate requests by baseline
	for body := range results {
		var req server.SweepRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			return nil, err
		}
		if req.Figure == "" {
			k := configKey(simConfig(daemonOp{body: []byte(body)}))
			byConfig[k] = append(byConfig[k], body)
			continue
		}
		b := newBuilds(nil)
		f, err := core.Figures()[req.Figure](core.Options{
			Nodes: req.Nodes, Iterations: req.Iters, Reps: req.Reps, Seed: req.Seed,
			Workloads: req.Workloads, Experiments: b.build,
		})
		if err != nil {
			return nil, err
		}
		want, err := figureBytes(f)
		if err != nil {
			return nil, err
		}
		if work[body], err = figureSimOps(f, b, b.baselineOps()); err != nil {
			return nil, err
		}
		check(body, want)
	}
	// One baseline per config, dropped once its requests are checked:
	// most configs are one-off cache misses.
	for _, bodies := range byConfig {
		b := newBuilds(nil)
		exp, err := b.build(simConfig(daemonOp{body: []byte(bodies[0])}))
		if err != nil {
			return nil, err
		}
		for _, body := range bodies {
			var req server.SimulateRequest
			if err := json.Unmarshal([]byte(body), &req); err != nil {
				return nil, err
			}
			res, err := directSimulate(exp, req)
			if err != nil {
				return nil, err
			}
			want, err := canonical("simulate", res)
			if err != nil {
				return nil, err
			}
			work[body] = b.baselineOps() * int64(1+req.Reps)
			check(body, want)
		}
	}
	return work, nil
}

// directSimulate computes what a simulate job returns, straight from
// core.Experiment, for the request forms daemonStack sends.
func directSimulate(exp *core.Experiment, req server.SimulateRequest) ([]byte, error) {
	mode, err := systems.LoggingModeByName(req.Mode)
	if err != nil {
		return nil, err
	}
	sc := core.Scenario{MTBCE: req.MTBCENanos, PerEvent: noise.Fixed(mode.PerEventNanos),
		Target: noise.AllNodes, Seed: req.Seed + 1}
	rep, err := exp.RunRepeated(sc, req.Reps)
	if err != nil {
		return nil, err
	}
	cfg := exp.Config()
	res := server.SimulateResult{
		Workload: cfg.Workload, Nodes: cfg.Nodes, Ranks: exp.Ranks(), Iters: cfg.Iterations,
		MTBCENanos: sc.MTBCE, PerEventNanos: mode.PerEventNanos, Target: sc.Target, Reps: req.Reps,
		BaselineMakespanNanos: exp.Baseline().Makespan,
		Saturated:             rep.Saturated,
		SaturatedReps:         rep.SaturatedReps,
	}
	if rep.Sample.N() > 0 {
		sum := rep.Sample.Summarize()
		p50, err := rep.Sample.Quantile(50)
		if err != nil {
			return nil, err
		}
		p95, err := rep.Sample.Quantile(95)
		if err != nil {
			return nil, err
		}
		res.Slowdown = &server.SlowdownJSON{MeanPct: sum.Mean, CI95Pct: sum.CI95,
			MinPct: sum.Min, MaxPct: sum.Max, P50Pct: p50, P95Pct: p95, N: sum.N}
	}
	return json.Marshal(res)
}
