package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/loggopsim"
)

// RunRepeatedParallel is RunRepeated with repetitions fanned out over
// worker goroutines. Simulations share the experiment's expanded trace
// and compiled program read-only and own private state, so repetitions
// are independent; results are accumulated in seed order, making the
// sample identical to the sequential version. workers <= 0 selects
// GOMAXPROCS.
func (e *Experiment) RunRepeatedParallel(sc Scenario, reps, workers int) (*Repeated, error) {
	return e.RunRepeatedParallelContext(context.Background(), sc, reps, workers)
}

// RunRepeatedParallelContext is RunRepeatedParallel honoring a context:
// cancellation or deadline expiry is observed between repetitions and
// surfaces as ctx.Err(). With an unexpired context the result is
// bit-identical to RunRepeated.
func (e *Experiment) RunRepeatedParallelContext(ctx context.Context, sc Scenario, reps, workers int) (*Repeated, error) {
	if reps < 1 {
		return nil, fmt.Errorf("core: reps must be >= 1, got %d", reps)
	}
	// Each slot keeps only what Repeated folds, not the per-rank
	// results, so a long run holds no more than the sequential loop.
	type outcome struct {
		res     RunResult
		retried int
	}
	outs := make([]outcome, reps)
	err := fanOut(reps, workers, func(w *worker, i int) error {
		sci := sc
		sci.Seed = sc.Seed + uint64(i)
		res, retried, err := e.runRep(ctx, w, sci)
		if err != nil {
			return err
		}
		outs[i] = outcome{res: RunResult{SlowdownPct: res.SlowdownPct, Saturated: res.Saturated}, retried: retried}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &Repeated{}
	for i := range outs {
		out.RetriedReps += outs[i].retried
		out.add(&outs[i].res)
	}
	return out, nil
}

// fanOut runs the items 0..n-1 of an ordered plan on up to workers
// goroutines (workers <= 0 selects GOMAXPROCS; one worker runs on the
// calling goroutine) and returns the error of the lowest-index failed
// item. Items are dispatched in index order and dispatch stops at the
// first failure, so every item below a failed one has run to
// completion: the returned error is the one a sequential loop over
// the same items returns. run stores its result in the caller's slot
// i; w is the calling goroutine's worker, whose simulator later items
// reuse. A panic in run re-panics on the calling goroutine, where the
// sequential loop's panic would have surfaced.
func fanOut(n, workers int, run func(w *worker, i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	set := &simSet{}
	if workers <= 1 {
		w := &worker{set: set}
		defer w.release()
		for i := 0; i < n; i++ {
			if err := run(w, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		mu     sync.Mutex
		next   int
		failed = n // lowest failed index; nothing at or past it is dispatched
		ferr   error
		wg     sync.WaitGroup
	)
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &worker{set: set}
			defer w.release()
			for {
				mu.Lock()
				i := next
				if i >= failed {
					mu.Unlock()
					return
				}
				next++
				mu.Unlock()
				if err := callItem(run, w, i); err != nil {
					mu.Lock()
					if i < failed {
						failed, ferr = i, err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if p, ok := ferr.(itemPanic); ok {
		panic(p.v)
	}
	return ferr
}

// itemPanic carries a panic out of a fan-out goroutine.
type itemPanic struct{ v any }

func (p itemPanic) Error() string { return fmt.Sprintf("core: fan-out item panicked: %v", p.v) }

// callItem runs one item, converting a panic into an itemPanic error.
func callItem(run func(w *worker, i int) error, w *worker, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			w.discard()
			err = itemPanic{r}
		}
	}()
	return run(w, i)
}

// simSet hands out perturbed-run simulators for one fan-out call. The
// first simulator the call acquires for an experiment — pooled or
// newly compiled — is the call's prototype for it; every later
// acquisition takes a pooled simulator or forks the prototype, so
// concurrent workers share one compiled program instead of each
// compiling its own. The set lives only as long as the call: nothing
// pins a compiled program on the Experiment beyond the simulators in
// its pool.
type simSet struct {
	mu     sync.Mutex
	protos map[*Experiment]*loggopsim.Simulator
}

func (s *simSet) acquire(e *Experiment) (*loggopsim.Simulator, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	proto, ok := s.protos[e]
	if !ok {
		sim, err := e.acquireSim()
		if err != nil {
			return nil, err
		}
		if s.protos == nil {
			s.protos = map[*Experiment]*loggopsim.Simulator{}
		}
		s.protos[e] = sim
		return sim, nil
	}
	if sim, ok := e.sims.Get().(*loggopsim.Simulator); ok {
		return sim, nil
	}
	// Fork reads only the prototype's compiled program, so it is safe
	// while another worker runs the prototype.
	return proto.Fork(), nil
}

// worker is one fan-out goroutine's simulator, kept across items of
// the same experiment and returned to its experiment's pool when the
// worker moves to another experiment or finishes.
type worker struct {
	set *simSet
	e   *Experiment
	sim *loggopsim.Simulator
}

// simFor returns the worker's simulator for e.
func (w *worker) simFor(e *Experiment) (*loggopsim.Simulator, error) {
	if w.sim != nil && w.e == e {
		return w.sim, nil
	}
	w.release()
	sim, err := w.set.acquire(e)
	if err != nil {
		return nil, err
	}
	w.e, w.sim = e, sim
	return sim, nil
}

// discard drops the worker's simulator without pooling it: a panic
// may have left it mid-run.
func (w *worker) discard() { w.sim = nil }

func (w *worker) release() {
	if w.sim != nil {
		w.e.releaseSim(w.sim)
	}
	w.e, w.sim = nil, nil
}
