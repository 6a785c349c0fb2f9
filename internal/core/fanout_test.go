package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// withProcs runs fn with runtime.GOMAXPROCS set to n, the only control
// over how many workers the figure drivers use.
func withProcs(n int, fn func()) {
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

// fanOutDrivers is every figure driver plus Surface, keyed by name.
func fanOutDrivers() map[string]func(Options) (*Figure, error) {
	drivers := Figures()
	drivers["surface"] = func(o Options) (*Figure, error) {
		f, _, err := Surface(o, "minife", nil, nil)
		return f, err
	}
	return drivers
}

// TestFiguresInvariantToWorkerCount runs every driver with one worker
// and with four and requires byte-equal JSON: rows are planned in
// output order and each row's repetitions run in seed order on one
// simulator, so the worker count cannot show in the output.
func TestFiguresInvariantToWorkerCount(t *testing.T) {
	for name, driver := range fanOutDrivers() {
		run := func(procs int) []byte {
			var out []byte
			withProcs(procs, func() {
				f, err := driver(tinyOpts("minife", "hpcg"))
				if err != nil {
					t.Fatalf("%s with GOMAXPROCS=%d: %v", name, procs, err)
				}
				var buf bytes.Buffer
				if err := f.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				out = buf.Bytes()
			})
			return out
		}
		one, four := run(1), run(4)
		if !bytes.Equal(one, four) {
			t.Fatalf("%s: output differs between 1 and 4 workers:\n%s\nvs\n%s", name, one, four)
		}
	}
}

// fig3Seed is the CE seed of the first repetition of Figure 3's rows
// at mtbce index i under tinyOpts; those rows run 4 repetitions.
func fig3Seed(i int) uint64 { return 1 + uint64(i)*1000 + 1 }

// The keyed faults fail rows 3 and 4 of Figure 3's plan, mid-way
// through the first workload's first mode. Row 3 fails late, in its
// last repetition, and row 4 at once, so with several workers the
// higher-index row usually fails first in time: the driver must still
// return row 3's error, as the sequential loop does.
var (
	fig3FailSeed  = fig3Seed(3) + 3
	fig3FaultKeys = []uint64{fig3FailSeed, fig3Seed(4)}
)

// waitGoroutines waits for the goroutine count to fall back to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFigureErrorOrder fails mid-plan rows deterministically — a keyed
// fault on the core.repetition site fires on every attempt of the
// repetitions with chosen CE seeds, so their retries are exhausted
// under any schedule — and requires the four-worker driver to return
// the one-worker driver's error, leaking no goroutines. Baseline
// build failures take part too: a failed build counts at the
// position where the sequential loop built the experiment.
func TestFigureErrorOrder(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	errBuild := errors.New("injected build failure")
	failBuild := func(workload string) func(ExperimentConfig) (*Experiment, error) {
		return func(cfg ExperimentConfig) (*Experiment, error) {
			if cfg.Workload == workload {
				return nil, fmt.Errorf("%s: %w", workload, errBuild)
			}
			return NewExperiment(cfg)
		}
	}
	cases := []struct {
		name      string
		kind      faultinject.Kind
		build     func(ExperimentConfig) (*Experiment, error)
		wantBuild bool // the build error, not the row's, comes first
	}{
		{name: "error", kind: faultinject.KindError},
		{name: "panic", kind: faultinject.KindPanic},
		{name: "row-before-failed-build", kind: faultinject.KindError, build: failBuild("hpcg")},
		{name: "build-before-failed-row", kind: faultinject.KindError, build: failBuild("minife"), wantBuild: true},
	}
	for _, c := range cases {
		plan := faultinject.Plan{faultinject.SiteRepetition: {
			Kind: c.kind, Probability: 1, Keys: fig3FaultKeys,
		}}
		run := func(procs int) error {
			if err := faultinject.Arm(plan); err != nil {
				t.Fatal(err)
			}
			defer faultinject.Disarm()
			base := runtime.NumGoroutine()
			opts := tinyOpts("minife", "hpcg")
			opts.Experiments = c.build
			var err error
			withProcs(procs, func() {
				var f *Figure
				f, err = Figure3(opts)
				if err == nil {
					t.Fatalf("%s with GOMAXPROCS=%d: no error, %d rows", c.name, procs, len(f.Rows))
				}
			})
			waitGoroutines(t, base)
			return err
		}
		one, four := run(1), run(4)
		if one.Error() != four.Error() {
			t.Fatalf("%s: 4 workers returned %q, 1 worker %q", c.name, four, one)
		}
		if c.wantBuild {
			if !errors.Is(four, errBuild) {
				t.Fatalf("%s: got %v, want the build error", c.name, four)
			}
			continue
		}
		var re *RepetitionError
		if !errors.As(four, &re) || re.Seed != fig3FailSeed {
			t.Fatalf("%s: got %v (%T), want a repetition error for seed %d", c.name, four, four, fig3FailSeed)
		}
	}
}

// TestFanOutPanicReachesCaller checks a panic in a fan-out item
// re-panics on the calling goroutine, where the recovery of a caller
// such as the jobs worker sees it, and that no worker outlives the
// call.
func TestFanOutPanicReachesCaller(t *testing.T) {
	base := runtime.NumGoroutine()
	got := func() (v any) {
		defer func() { v = recover() }()
		_ = fanOut(8, 4, func(_ *worker, i int) error {
			if i == 2 {
				panic("item 2")
			}
			return nil
		})
		return nil
	}()
	if got != "item 2" {
		t.Fatalf("recovered %v, want the item's panic value", got)
	}
	waitGoroutines(t, base)
}
