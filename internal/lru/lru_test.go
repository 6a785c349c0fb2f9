package lru

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// unit prices every value at 1, so capacity counts entries.
func unit(int) int64 { return 1 }

// value returns a builder that yields v and counts its runs.
func value(v int, builds *atomic.Int64) func() (int, error) {
	return func() (int, error) {
		builds.Add(1)
		return v, nil
	}
}

// resident reports whether key is resident, without building it.
func resident(c *Cache[string, int], key string) bool {
	_, hit, err := c.GetOrBuild(context.Background(), key, func() (int, error) {
		return 0, errors.New("absent")
	})
	return hit && err == nil
}

// waitStats polls Stats until ok accepts it: the deterministic way to
// know every goroutine has reached the cache before a test proceeds.
func waitStats(t *testing.T, c *Cache[string, int], ok func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s := c.Stats(); !ok(s); s = c.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("stats never settled: %+v", s)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestGetOrBuildHitMiss(t *testing.T) {
	c := New[string, int](10, unit)
	var builds atomic.Int64
	ctx := context.Background()

	v, hit, err := c.GetOrBuild(ctx, "a", value(7, &builds))
	if err != nil || hit || v != 7 {
		t.Fatalf("first lookup: v=%d hit=%v err=%v", v, hit, err)
	}
	v, hit, err = c.GetOrBuild(ctx, "a", value(8, &builds))
	if err != nil || !hit || v != 7 {
		t.Fatalf("second lookup: v=%d hit=%v err=%v", v, hit, err)
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("builder ran %d times, want 1", n)
	}
	s := c.Stats()
	want := Stats{Entries: 1, SizeBytes: 1, CapBytes: 10, Hits: 1, Misses: 1, HitRatio: 0.5}
	if s != want {
		t.Fatalf("stats %+v, want %+v", s, want)
	}
}

// TestEvictionBound: the summed cost stays within capacity, evictions
// are counted, and the most recent entry survives even when it alone
// exceeds the bound.
func TestEvictionBound(t *testing.T) {
	c := New[string, int](10, func(v int) int64 { return int64(v) })
	var builds atomic.Int64
	ctx := context.Background()
	for _, k := range []string{"a", "b", "c"} {
		if _, _, err := c.GetOrBuild(ctx, k, value(4, &builds)); err != nil {
			t.Fatal(err)
		}
	}
	if s := c.Stats(); s.Entries != 2 || s.SizeBytes != 8 || s.Evictions != 1 {
		t.Fatalf("stats after one eviction: %+v", s)
	}
	if resident(c, "a") {
		t.Fatal("least recently used entry survived")
	}

	if _, _, err := c.GetOrBuild(ctx, "huge", value(100, &builds)); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Entries != 1 || s.SizeBytes != 100 {
		t.Fatalf("oversized entry not retained alone: %+v", s)
	}
	if !resident(c, "huge") {
		t.Fatal("most recent entry evicted")
	}
}

// TestTouchOrder: a hit moves an entry to the front, so the untouched
// one becomes the eviction victim.
func TestTouchOrder(t *testing.T) {
	c := New[string, int](2, unit)
	var builds atomic.Int64
	ctx := context.Background()
	for _, k := range []string{"a", "b"} {
		if _, _, err := c.GetOrBuild(ctx, k, value(1, &builds)); err != nil {
			t.Fatal(err)
		}
	}
	if !resident(c, "a") { // touch a: order is now [a, b]
		t.Fatal("entry a missing before touch test")
	}
	if _, _, err := c.GetOrBuild(ctx, "c", value(1, &builds)); err != nil { // evicts b
		t.Fatal(err)
	}
	if resident(c, "b") {
		t.Fatal("least recently used entry survived")
	}
	if !resident(c, "a") || !resident(c, "c") {
		t.Fatal("recently used entry evicted")
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := New[string, int](10, unit)
	ctx := context.Background()
	boom := errors.New("transient")
	if _, hit, err := c.GetOrBuild(ctx, "a", func() (int, error) { return 0, boom }); !errors.Is(err, boom) || hit {
		t.Fatalf("failed build: hit=%v err=%v", hit, err)
	}
	var builds atomic.Int64
	if v, hit, err := c.GetOrBuild(ctx, "a", value(3, &builds)); err != nil || hit || v != 3 {
		t.Fatalf("retry after error: v=%d hit=%v err=%v", v, hit, err)
	}
	if s := c.Stats(); s.Misses != 2 || s.Entries != 1 {
		t.Fatalf("stats %+v", s)
	}
}

// TestGetOrBuildCoalesces: concurrent lookups of an absent key run the
// builder once; every waiter reports a hit with the builder's value.
// The build is released only after Stats shows every lookup parked, so
// the outcome never depends on goroutine scheduling.
func TestGetOrBuildCoalesces(t *testing.T) {
	c := New[string, int](10, unit)
	var builds atomic.Int64
	release := make(chan struct{})
	build := func() (int, error) {
		builds.Add(1)
		<-release
		return 42, nil
	}

	const lookups = 8
	var wg sync.WaitGroup
	vals := make([]int, lookups)
	hits := make([]bool, lookups)
	errs := make([]error, lookups)
	for i := 0; i < lookups; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], hits[i], errs[i] = c.GetOrBuild(context.Background(), "k", build)
		}(i)
	}
	waitStats(t, c, func(s Stats) bool { return s.Misses == 1 && s.Coalesced == lookups-1 })
	close(release)
	wg.Wait()

	if n := builds.Load(); n != 1 {
		t.Fatalf("builder ran %d times, want 1", n)
	}
	var hitCount int
	for i := 0; i < lookups; i++ {
		if errs[i] != nil || vals[i] != 42 {
			t.Fatalf("lookup %d: v=%d err=%v", i, vals[i], errs[i])
		}
		if hits[i] {
			hitCount++
		}
	}
	if hitCount != lookups-1 {
		t.Fatalf("%d lookups reported hits, want %d", hitCount, lookups-1)
	}
}

// TestCoalescedWaiterGetsBuildError: a waiter shares the builder's
// error, and the error is not cached for later lookups.
func TestCoalescedWaiterGetsBuildError(t *testing.T) {
	c := New[string, int](10, unit)
	boom := errors.New("boom")
	release := make(chan struct{})
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, _, err := c.GetOrBuild(context.Background(), "k", func() (int, error) {
				<-release
				return 0, boom
			})
			errs <- err
		}()
	}
	waitStats(t, c, func(s Stats) bool { return s.Misses == 1 && s.Coalesced == 1 })
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, boom) {
			t.Fatalf("lookup %d: %v, want the builder's error", i, err)
		}
	}
	if s := c.Stats(); s.Entries != 0 {
		t.Fatalf("failed build left an entry: %+v", s)
	}
}

// TestPanickingBuildDoesNotWedge: the builder panics while a waiter is
// coalesced on its flight. The panic reaches the building goroutine,
// the waiter gets ErrBuildPanicked, and a later lookup builds afresh.
func TestPanickingBuildDoesNotWedge(t *testing.T) {
	c := New[string, int](10, unit)
	release := make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		_, _, _ = c.GetOrBuild(context.Background(), "k", func() (int, error) {
			<-release
			panic("builder exploded")
		})
	}()
	waitStats(t, c, func(s Stats) bool { return s.Misses == 1 })

	waited := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrBuild(context.Background(), "k", func() (int, error) { return 0, nil })
		waited <- err
	}()
	waitStats(t, c, func(s Stats) bool { return s.Coalesced == 1 })
	close(release)

	select {
	case err := <-waited:
		if !errors.Is(err, ErrBuildPanicked) {
			t.Fatalf("waiter: %v, want ErrBuildPanicked", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter wedged on a panicked flight")
	}
	if p := <-panicked; p != "builder exploded" {
		t.Fatalf("builder's panic = %v, want it re-raised in the building goroutine", p)
	}

	var builds atomic.Int64
	if v, hit, err := c.GetOrBuild(context.Background(), "k", value(5, &builds)); err != nil || hit || v != 5 {
		t.Fatalf("post-panic lookup: v=%d hit=%v err=%v", v, hit, err)
	}
}

// TestContextBoundsOnlyTheWait: a waiter whose ctx ends gives up with
// ctx.Err(), while the build it waited on still completes and is
// cached.
func TestContextBoundsOnlyTheWait(t *testing.T) {
	c := New[string, int](10, unit)
	release := make(chan struct{})
	built := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrBuild(context.Background(), "k", func() (int, error) {
			<-release
			return 9, nil
		})
		built <- err
	}()
	waitStats(t, c, func(s Stats) bool { return s.Misses == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, hit, err := c.GetOrBuild(ctx, "k", func() (int, error) { return 0, nil }); !errors.Is(err, context.Canceled) || !hit {
		t.Fatalf("canceled waiter: hit=%v err=%v", hit, err)
	}

	close(release)
	if err := <-built; err != nil {
		t.Fatalf("build interrupted: %v", err)
	}
	var builds atomic.Int64
	if v, hit, err := c.GetOrBuild(context.Background(), "k", value(0, &builds)); err != nil || !hit || v != 9 {
		t.Fatalf("after the wait: v=%d hit=%v err=%v", v, hit, err)
	}
}
