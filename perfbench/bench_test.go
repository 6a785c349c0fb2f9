package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/noise"
	"repro/internal/rng"
	"repro/internal/systems"
)

// TestMain lets the test binary serve as the benchmark's child process,
// so the smoke tests exercise the real parent/child protocol.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		if err := childMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runTiny runs the benchmark at the tiny scale for one second and
// returns its exit code, parsed result and full standard output.
func runTiny(t *testing.T, args ...string) (int, result, string) {
	t.Helper()
	var out, errb bytes.Buffer
	base := []string{"--scale", "tiny", "--seconds", "1", "--ref", "reference.json", "--work", t.TempDir()}
	code := run(append(base, args...), &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result (exit %d): %v\nstdout:\n%s\nstderr:\n%s", code, err, out.String(), errb.String())
	}
	return code, r, out.String()
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				code, r, out := runTiny(t, "--workload", w, "--trace", trace)
				if code != 0 || !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("exit %d, correct=%v, %d failed of %d\n%s", code, r.Correct, r.Failed, r.Attempted, out)
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(r.Metrics), len(want))
				}
				for _, m := range want {
					v, ok := r.Metrics[m.name]
					if !ok || v.Unit != m.unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.name, v, m.unit)
					}
					if !strings.Contains(out, m.name) {
						t.Errorf("metric %s is not printed by name", m.name)
					}
				}
				if trace == "0" {
					for _, m := range endToEnd {
						if r.Metrics[m.name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", m.name, r.Metrics[m.name].Value)
						}
					}
				}
			})
		}
	}
}

func TestTamperedReferenceFails(t *testing.T) {
	ref, err := loadReference("reference.json")
	if err != nil {
		t.Fatal(err)
	}
	for w, d := range ref.Digests["tiny"] {
		if d == "" {
			t.Fatalf("no committed tiny %s digest", w)
		}
		b := []byte(d)
		b[0] ^= 1
		ref.Digests["tiny"][w] = string(b)
	}
	b, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "reference.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	// cluster-sweep is held to fig5-sweep's digest, so it fails too.
	for _, w := range workloads {
		code, r, out := runTiny(t, "--workload", w, "--ref", path)
		if code == 0 || r.Correct || r.Failed == 0 {
			t.Errorf("%s: tampered reference passed: exit %d, correct=%v, failed=%d\n%s", w, code, r.Correct, r.Failed, out)
		}
	}
}

func TestBenchmarkJSONMatchesReportedMetrics(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}
	var e2e, layers []metric
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metric{m.Name, m.Unit})
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, metric{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark reports %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, benchmark reports %v", layers, perLayer)
	}
}

// The tail must never read below the median, whatever the sample size.
func TestTailNotBelowMedian(t *testing.T) {
	for n := 1; n <= 300; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64((i * 37) % n)
		}
		if tl, m := tail(xs), median(xs); tl < m {
			t.Errorf("n=%d: tail %v below median %v", n, tl, m)
		}
	}
}

// The split builder must build the very experiment core.NewExperiment
// builds, down to per-rank finish times.
func TestSplitBuildMatchesNewExperiment(t *testing.T) {
	for _, cfg := range []core.ExperimentConfig{
		{Workload: "minife", Nodes: 8, Iterations: 2, TraceSeed: 3},
		{Workload: "lulesh", Nodes: 27, Iterations: 2, TraceSeed: 1},
		{Workload: "hpcg", Nodes: 16, Iterations: 3, TraceSeed: 7},
	} {
		want, err := core.NewExperiment(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		got, err := splitBuild(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Prepared(), want.Prepared()) || got.Config() != want.Config() {
			t.Errorf("%+v: split build differs from core.NewExperiment", cfg)
		}
		for _, name := range []string{"core.build", "tracegen.Generate", "collectives.Expand", "loggopsim.Simulate"} {
			if _, n := tr.busy(name); n != 1 {
				t.Errorf("%+v: %d %s spans, want 1", cfg, n, name)
			}
		}
	}
}

// plainArrivals implements neither optional interface.
type plainArrivals struct{}

func (plainArrivals) NextGap(src *rng.Source, _ *uint64) int64 { return int64(src.Exp(5e6)) }
func (plainArrivals) MeanGap() float64                         { return 5e6 }
func (plainArrivals) String() string                           { return "plain" }

// The arrivals tap must expose exactly the optional interfaces of the
// process it wraps and leave every simulated result unchanged.
func TestTappedArrivalsForwardAndPerturbNothing(t *testing.T) {
	mix, err := systems.FaultMixByName("field-ddr4")
	if err != nil {
		t.Fatal(err)
	}
	mtbce := int64(20e6)
	newProc := func() noise.Arrivals {
		p, err := mix.Spec.WithMTBCE(mtbce).Process()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, a := range []noise.Arrivals{newProc(), noise.Poisson(mtbce), plainArrivals{}} {
		w := tapArrivals(a, &noiseTap{})
		_, b1 := a.(noise.GapBatcher)
		_, b2 := w.(noise.GapBatcher)
		_, g1 := a.(noise.ComponentGapper)
		_, g2 := w.(noise.ComponentGapper)
		if b1 != b2 || g1 != g2 || w.String() != a.String() || w.MeanGap() != a.MeanGap() {
			t.Errorf("%s: tap changes the process's interfaces or identity", a)
		}
	}
	// The last case is fig8-saturation's saturating row: it passes the
	// load check and trips the guard inside the simulation, which
	// ComponentGapper calibrates.
	for _, c := range []struct {
		nodes, iters    int
		mtbce, perEvent int64
		inSimSaturation bool
	}{
		{8, 2, mtbce, 150, false},
		{8, 2, mtbce, 775e3, false},
		{32, 1, int64(float64(fig8MTBCE) * (32.0 / fig8PaperNodes)), 775e3, true},
	} {
		e, err := core.NewExperiment(core.ExperimentConfig{Workload: "minife", Nodes: c.nodes, Iterations: c.iters, TraceSeed: 1})
		if err != nil {
			t.Fatal(err)
		}
		proc := func() noise.Arrivals {
			p, err := mix.Spec.WithMTBCE(c.mtbce).Process()
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		sc := core.Scenario{MTBCE: c.mtbce, PerEvent: noise.Fixed(c.perEvent), Target: noise.AllNodes, Seed: fig8CESeed}
		sc.Arrivals = proc()
		want, err := e.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		tap := &noiseTap{}
		sc.Arrivals = tapArrivals(proc(), tap)
		got, err := e.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: tapped run differs from the plain run", c)
		}
		if tap.gaps == 0 {
			t.Errorf("%+v: tap saw no gap draws", c)
		}
		if inSim := want.Saturated && want.Perturbed != nil; inSim != c.inSimSaturation {
			t.Errorf("%+v: saturated inside the simulation = %v", c, inSim)
		}
	}
}

// fig8-saturation assembles its rows itself (to see each RunResult);
// they must equal core.Figure8's rows for the same compositions.
func TestFig8RowsMatchFigure8(t *testing.T) {
	sz := scales["tiny"]
	c := childConfig{workload: "fig8-saturation", seed: defaultSeed, sz: sz, workDir: t.TempDir()}
	s := &fig8Stack{c: c, b: newBuilds(nil)}
	if _, err := s.run(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(c.workDir, "fig8.json"))
	if err != nil {
		t.Fatal(err)
	}
	f, err := core.Figure8(core.Options{Nodes: sz.fig8Nodes, Iterations: sz.fig8Iters, Reps: sz.fig8Reps,
		Seed: fig8CESeed - 1, Workloads: []string{"minife"}})
	if err != nil {
		t.Fatal(err)
	}
	kept := f.Rows[:0]
	for _, r := range f.Rows {
		if r.System != "high-altitude" {
			kept = append(kept, r)
		}
	}
	f.Rows = kept
	want, err := figureBytes(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("fig8-saturation rows differ from core.Figure8:\n got %s\nwant %s", got, want)
	}
}
