package loggopsim

// Golden bit-identity tests for simulator-state reuse: a Simulator
// constructed once and Run many times — in shuffled seed order, with
// repeated seeds, interleaved with noise-free runs — must reproduce
// fresh Simulate results event for event. This is the hard constraint
// that lets the repeated-run hot path (core.RunRepeated, the daemon's
// sweep jobs) reuse preallocated state.

import (
	"fmt"
	"testing"

	"repro/internal/collectives"
	"repro/internal/netmodel"
	"repro/internal/noise"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// expandWorkload generates and collective-expands a tracegen workload.
func expandWorkload(t *testing.T, workload string, ranks, iters int) *trace.Trace {
	t.Helper()
	tr, err := tracegen.Generate(workload, ranks, iters, 1)
	if err != nil {
		t.Fatalf("generate %s: %v", workload, err)
	}
	ex, err := collectives.Expand(tr, collectives.Config{})
	if err != nil {
		t.Fatalf("expand %s: %v", workload, err)
	}
	return ex
}

// ceModel builds a fresh CE noise model; both the fresh-Simulate and
// the reused-Simulator paths get their own instance per seed, as the
// repetition loops in core do.
func ceModel(t *testing.T, ranks int, seed uint64) noise.Model {
	t.Helper()
	nm, err := noise.NewCE(ranks, noise.Config{
		Seed: seed, MTBCE: 20 * ms, Duration: noise.Fixed(500 * us), Target: noise.AllNodes,
	})
	if err != nil {
		t.Fatalf("noise model: %v", err)
	}
	return nm
}

func int64sEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// requireIdentical fails unless two results match on every observable
// field, including the per-rank profile decomposition.
func requireIdentical(t *testing.T, label string, fresh, reused *Result) {
	t.Helper()
	if err := resultDiff(label, fresh, reused); err != nil {
		t.Fatal(err)
	}
}

// resultDiff is requireIdentical's check as an error, for goroutines
// other than the test's.
func resultDiff(label string, fresh, reused *Result) error {
	if fresh.Makespan != reused.Makespan {
		return fmt.Errorf("%s: makespan %d != %d", label, reused.Makespan, fresh.Makespan)
	}
	if !int64sEqual(fresh.FinishTimes, reused.FinishTimes) {
		return fmt.Errorf("%s: finish times diverged\nfresh:  %v\nreused: %v", label, fresh.FinishTimes, reused.FinishTimes)
	}
	if fresh.Events != reused.Events {
		return fmt.Errorf("%s: events %d != %d", label, reused.Events, fresh.Events)
	}
	if fresh.Messages != reused.Messages {
		return fmt.Errorf("%s: messages %d != %d", label, reused.Messages, fresh.Messages)
	}
	if fresh.BytesMoved != reused.BytesMoved {
		return fmt.Errorf("%s: bytes %d != %d", label, reused.BytesMoved, fresh.BytesMoved)
	}
	if fresh.Deadlocked != reused.Deadlocked || fresh.TimedOut != reused.TimedOut {
		return fmt.Errorf("%s: termination flags diverged", label)
	}
	if (fresh.Profile == nil) != (reused.Profile == nil) {
		return fmt.Errorf("%s: profile presence diverged", label)
	}
	if fresh.Profile != nil {
		fp, rp := fresh.Profile, reused.Profile
		if fp.Work != rp.Work || fp.Detour != rp.Detour || fp.Wait != rp.Wait {
			return fmt.Errorf("%s: profile totals diverged: %+v vs %+v", label, rp, fp)
		}
		if !int64sEqual(fp.PerRankWork, rp.PerRankWork) ||
			!int64sEqual(fp.PerRankDetour, rp.PerRankDetour) ||
			!int64sEqual(fp.PerRankWait, rp.PerRankWait) {
			return fmt.Errorf("%s: per-rank profile diverged", label)
		}
	}
	return nil
}

func TestSimulatorReuseBitIdentical(t *testing.T) {
	workloads := []struct {
		name         string
		ranks, iters int
	}{
		{"minife", 16, 3},
		{"cth", 8, 2},
	}
	// Shuffled, with a repeated seed: reuse must not depend on run
	// order or on having seen a seed before.
	seeds := []uint64{5, 2, 9, 2, 7, 1, 9}
	for _, wl := range workloads {
		ex := expandWorkload(t, wl.name, wl.ranks, wl.iters)
		ranks := ex.NumRanks()
		for _, profile := range []bool{false, true} {
			cfg := Config{Net: netmodel.CrayXC40(), Profile: profile}
			sim, err := NewSimulator(ex, cfg)
			if err != nil {
				t.Fatalf("%s: new simulator: %v", wl.name, err)
			}
			if sim.Ranks() != ranks {
				t.Fatalf("%s: simulator ranks %d, want %d", wl.name, sim.Ranks(), ranks)
			}
			freshClean, err := Simulate(ex, cfg)
			if err != nil {
				t.Fatalf("%s: fresh clean run: %v", wl.name, err)
			}
			reusedClean, err := sim.Run(nil)
			if err != nil {
				t.Fatalf("%s: reused clean run: %v", wl.name, err)
			}
			requireIdentical(t, wl.name+"/clean", freshClean, reusedClean)
			for _, seed := range seeds {
				ncfg := cfg
				ncfg.Noise = ceModel(t, ranks, seed)
				fresh, err := Simulate(ex, ncfg)
				if err != nil {
					t.Fatalf("%s seed %d: fresh run: %v", wl.name, seed, err)
				}
				reused, err := sim.Run(ceModel(t, ranks, seed))
				if err != nil {
					t.Fatalf("%s seed %d: reused run: %v", wl.name, seed, err)
				}
				requireIdentical(t, wl.name, fresh, reused)
				if fresh.Makespan < freshClean.Makespan {
					t.Fatalf("%s seed %d: noisy run faster than clean baseline", wl.name, seed)
				}
			}
			// A later run must not have mutated the first Run's result
			// (FinishTimes and Profile are freshly allocated per run).
			requireIdentical(t, wl.name+"/retained", freshClean, reusedClean)
			again, err := sim.Run(nil)
			if err != nil {
				t.Fatalf("%s: clean re-run: %v", wl.name, err)
			}
			requireIdentical(t, wl.name+"/clean-again", freshClean, again)
		}
	}
}

// TestSimulatorRunErrorStateRecovers checks that a horizon-aborted run
// leaves the simulator reusable: the next Run starts from clean state.
func TestSimulatorRunErrorStateRecovers(t *testing.T) {
	ex := expandWorkload(t, "minife", 8, 2)
	full, err := Simulate(ex, Config{Net: netmodel.CrayXC40()})
	if err != nil {
		t.Fatalf("full run: %v", err)
	}
	cfg := Config{Net: netmodel.CrayXC40(), MaxTime: full.Makespan / 2}
	sim, err := NewSimulator(ex, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(nil)
	if err == nil || !res.TimedOut {
		t.Fatalf("expected horizon timeout, got err=%v res=%+v", err, res)
	}
	res2, err := sim.Run(nil)
	if err == nil || !res2.TimedOut {
		t.Fatalf("second run after timeout: err=%v", err)
	}
	requireIdentical(t, "timeout-repeat", res, res2)
}
