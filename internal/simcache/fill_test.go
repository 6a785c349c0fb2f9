package simcache

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
)

// TestBuilderPanicDoesNotWedgeWaiters is the "wedged cache fill" case:
// the builder panics while concurrent waiters are coalesced on its
// flight. Every waiter must get a typed error promptly instead of
// blocking forever, and a later lookup with a healthy builder must
// succeed (errors are not cached).
func TestBuilderPanicDoesNotWedgeWaiters(t *testing.T) {
	c := New(0)
	entered := make(chan struct{})
	release := make(chan struct{})
	c.SetBuilder(func(cfg core.ExperimentConfig) (*core.Experiment, error) {
		close(entered)
		<-release
		panic("builder exploded")
	})

	errs := make(chan error, 2)
	go func() {
		_, _, err := c.GetOrBuild(context.Background(), tinyCfg(1))
		errs <- err
	}()
	<-entered
	// Second goroutine coalesces onto the doomed flight.
	go func() {
		_, _, err := c.GetOrBuild(context.Background(), tinyCfg(1))
		errs <- err
	}()
	// Give the second lookup time to park on the flight, then let the
	// builder panic.
	time.Sleep(10 * time.Millisecond)
	close(release)

	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			var be *BuildError
			if !errors.As(err, &be) {
				t.Fatalf("waiter %d: %v (%T)", i, err, err)
			}
			if !be.Retryable() || be.Stack == "" || !strings.Contains(be.Stack, "goroutine") {
				t.Fatalf("build error lacks retryability or stack: %+v", be)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("waiter wedged on a panicked flight")
		}
	}

	// The failed fill left no residue: a healthy builder succeeds.
	c.SetBuilder(core.NewExperiment)
	if _, hit, err := c.GetOrBuild(context.Background(), tinyCfg(1)); err != nil || hit {
		t.Fatalf("post-panic lookup: hit=%v err=%v", hit, err)
	}
	if n := c.Stats().Entries; n != 1 {
		t.Fatalf("entries %d, want 1", n)
	}
}

// TestInjectedFillFaults arms the simcache.fill site and checks the
// two survivable fault kinds: an injected error surfaces as retryable
// without running the builder, and an injected panic is recovered into
// a *BuildError.
func TestInjectedFillFaults(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	c := New(0)
	var builds atomic.Int64
	c.SetBuilder(func(cfg core.ExperimentConfig) (*core.Experiment, error) {
		builds.Add(1)
		return core.NewExperiment(cfg)
	})

	// One injected error, then clean.
	if err := faultinject.Arm(faultinject.Plan{
		faultinject.SiteCacheFill: {Kind: faultinject.KindError, Probability: 1, Count: 1},
	}); err != nil {
		t.Fatal(err)
	}
	_, _, err := c.GetOrBuild(context.Background(), tinyCfg(1))
	if !faultinject.IsInjected(err) {
		t.Fatalf("first fill: %v", err)
	}
	if builds.Load() != 0 {
		t.Fatal("builder ran despite the injected fill error")
	}
	if _, hit, err := c.GetOrBuild(context.Background(), tinyCfg(1)); err != nil || hit {
		t.Fatalf("retry after injected error: hit=%v err=%v", hit, err)
	}

	// An injected panic is recovered, not propagated.
	if err := faultinject.Arm(faultinject.Plan{
		faultinject.SiteCacheFill: {Kind: faultinject.KindPanic, Probability: 1, Count: 1},
	}); err != nil {
		t.Fatal(err)
	}
	_, _, err = c.GetOrBuild(context.Background(), tinyCfg(2))
	var be *BuildError
	if !errors.As(err, &be) {
		t.Fatalf("injected panic surfaced as %v (%T)", err, err)
	}
	if _, ok := be.PanicValue.(faultinject.Panic); !ok {
		t.Fatalf("panic value %v (%T)", be.PanicValue, be.PanicValue)
	}
}

// TestWedgeRecoveryUnderConcurrency hammers a cache whose builder
// panics on a fraction of fills, checking no goroutine is ever left
// waiting and the cache converges to serving every key.
func TestWedgeRecoveryUnderConcurrency(t *testing.T) {
	c := New(0)
	var calls atomic.Int64
	c.SetBuilder(func(cfg core.ExperimentConfig) (*core.Experiment, error) {
		if calls.Add(1)%3 == 1 {
			panic("periodic build failure")
		}
		return core.NewExperiment(cfg)
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 4; k++ {
				cfg := tinyCfg(uint64(k + 1))
				for attempt := 0; attempt < 10; attempt++ {
					if _, _, err := c.GetOrBuild(context.Background(), cfg); err == nil {
						return
					}
				}
				t.Errorf("goroutine %d: key %d never built", g, k)
			}
		}(g)
	}
	wg.Wait()
}
