package loggopsim

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/noise"
)

// forkSeeds are the CE seeds every fork test replays; 0 stands for a
// noise-free run.
var forkSeeds = []uint64{0, 3, 8, 3, 11}

// forkWant computes the reference results with fresh Simulate calls.
func forkWant(t *testing.T, wl string, cfg Config) (map[uint64]*Result, *Simulator) {
	t.Helper()
	ex := expandWorkload(t, wl, 16, 3)
	want := map[uint64]*Result{}
	for _, seed := range forkSeeds {
		c := cfg
		if seed != 0 {
			c.Noise = ceModel(t, ex.NumRanks(), seed)
		}
		res, err := Simulate(ex, c)
		if err != nil {
			t.Fatalf("%s seed %d: simulate: %v", wl, seed, err)
		}
		want[seed] = res
	}
	sim, err := NewSimulator(ex, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return want, sim
}

// runSeeds replays forkSeeds on sim and compares each result with
// want. It reports through its error, so it may run on any goroutine.
func runSeeds(label string, sim *Simulator, want map[uint64]*Result) error {
	for _, seed := range forkSeeds {
		var nm noise.Model
		if seed != 0 {
			var err error
			nm, err = noise.NewCE(sim.Ranks(), noise.Config{
				Seed: seed, MTBCE: 20 * ms, Duration: noise.Fixed(500 * us), Target: noise.AllNodes,
			})
			if err != nil {
				return err
			}
		}
		res, err := sim.Run(nm)
		if err != nil {
			return fmt.Errorf("%s seed %d: %v", label, seed, err)
		}
		if err := resultDiff(fmt.Sprintf("%s seed %d", label, seed), want[seed], res); err != nil {
			return err
		}
	}
	return nil
}

// forkConfigs covers the calendar and shadow queues, with profiling on
// so per-rank Profile slices are compared too.
func forkConfigs() map[string]Config {
	return map[string]Config{
		"calendar": {Net: netmodel.CrayXC40(), Profile: true},
		"shadow":   {Net: netmodel.CrayXC40(), Profile: true, ShadowQueue: true},
	}
}

// TestForkBitIdentical checks that a fork of a simulator that has
// already run matches fresh Simulate calls and a fresh NewSimulator
// down to per-rank finish times and profiles.
func TestForkBitIdentical(t *testing.T) {
	for name, cfg := range forkConfigs() {
		for _, wl := range []string{"minife", "cth"} {
			label := name + "/" + wl
			want, parent := forkWant(t, wl, cfg)
			if err := runSeeds(label+"/parent", parent, want); err != nil {
				t.Fatal(err)
			}
			fork := parent.Fork()
			if fork.Ranks() != parent.Ranks() {
				t.Fatalf("%s: fork has %d ranks, parent %d", label, fork.Ranks(), parent.Ranks())
			}
			if err := runSeeds(label+"/fork", fork, want); err != nil {
				t.Fatal(err)
			}
			// A fork of a fork still shares the program and matches.
			if err := runSeeds(label+"/fork-of-fork", fork.Fork(), want); err != nil {
				t.Fatal(err)
			}
			// The parent is unaffected by its forks' runs.
			if err := runSeeds(label+"/parent-again", parent, want); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestForkConcurrent runs a parent and two forks at once; under -race
// it proves the shared compiled program is only read.
func TestForkConcurrent(t *testing.T) {
	for name, cfg := range forkConfigs() {
		want, parent := forkWant(t, "minife", cfg)
		if _, err := parent.Run(nil); err != nil {
			t.Fatal(err)
		}
		sims := []*Simulator{parent, parent.Fork(), parent.Fork()}
		errs := make([]error, len(sims))
		var wg sync.WaitGroup
		for i, sim := range sims {
			wg.Add(1)
			go func(i int, sim *Simulator) {
				defer wg.Done()
				errs[i] = runSeeds(fmt.Sprintf("%s/sim%d", name, i), sim, want)
			}(i, sim)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}
