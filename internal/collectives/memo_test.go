package collectives

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/lru"
	"repro/internal/trace"
)

// collectiveMix builds a trace exercising every collective kind, with
// application p2p ops interleaved so tag/req rebasing is checked against
// surrounding traffic.
func collectiveMix(n int, size int64) *trace.Trace {
	tr := &trace.Trace{Name: "memo-mix", Ops: make([][]trace.Op, n)}
	for r := 0; r < n; r++ {
		tr.Ops[r] = []trace.Op{
			{Kind: trace.OpCalc, Dur: 1000},
			{Kind: trace.OpBarrier},
			{Kind: trace.OpAllreduce, Size: size},
			{Kind: trace.OpBcast, Peer: 0, Size: size},
			{Kind: trace.OpReduce, Peer: int32(n / 2), Size: size},
			{Kind: trace.OpAllgather, Size: size},
			{Kind: trace.OpAlltoall, Size: size},
			{Kind: trace.OpGather, Peer: 0, Size: size},
			{Kind: trace.OpScatter, Peer: int32(n - 1), Size: size},
			{Kind: trace.OpAllreduce, Size: size}, // repeat: exercises a cache hit
			{Kind: trace.OpCalc, Dur: 500},
		}
	}
	return tr
}

// TestMemoizedExpansionBitIdentical replays the full algorithm zoo
// through the memoized and the direct expansion paths and requires
// identical op streams — the bit-identity contract splice() relies on.
func TestMemoizedExpansionBitIdentical(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8, 16, 31, 64} {
		for _, size := range []int64{0, 8, 4096, 64 << 10} {
			for _, algo := range []AllreduceAlgo{AllreduceAuto, AllreduceRecursiveDoubling, AllreduceRabenseifner, AllreduceRing} {
				t.Run(fmt.Sprintf("n=%d/size=%d/%v", n, size, algo), func(t *testing.T) {
					tr := collectiveMix(n, size)
					memo, err := Expand(tr, Config{Allreduce: algo})
					if err != nil {
						t.Fatal(err)
					}
					direct, err := Expand(tr, Config{Allreduce: algo, DisableMemo: true})
					if err != nil {
						t.Fatal(err)
					}
					for r := range direct.Ops {
						if !reflect.DeepEqual(memo.Ops[r], direct.Ops[r]) {
							t.Fatalf("rank %d: memoized expansion diverges from direct\nmemo:   %+v\ndirect: %+v",
								r, memo.Ops[r], direct.Ops[r])
						}
					}
				})
			}
		}
	}
}

// getOrBuild looks key up in c, building its canonical schedule on a
// miss and counting builds.
func getOrBuild(t *testing.T, c *lru.Cache[schedKey, schedule], key schedKey, builds *int) schedule {
	t.Helper()
	sch, _, err := c.GetOrBuild(context.Background(), key, func() (schedule, error) {
		*builds++
		return buildCanonical(key), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sch
}

// TestScheduleCacheHits: repeated expansion of the same trace must be
// served from the cache, not rebuilt.
func TestScheduleCacheHits(t *testing.T) {
	c := lru.New[schedKey](DefaultScheduleCacheBytes, scheduleCost)
	builds := 0
	key := schedKey{kind: trace.OpAllreduce, algo: AllreduceRing, n: 8, rank: 3, size: 1024}
	first := getOrBuild(t, c, key, &builds)
	second := getOrBuild(t, c, key, &builds)
	if builds != 1 {
		t.Fatalf("schedule built %d times, want 1", builds)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cache returned a different schedule on the hit")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

// TestScheduleCacheEviction: schedules are priced by scheduleCost, so
// a 16-rank sweep overflows a bound sized for three 40-op schedules,
// evicts, and keeps the summed cost within the bound.
func TestScheduleCacheEviction(t *testing.T) {
	c := lru.New[schedKey](3*(schedOpBytes*40+schedEntryOverhead), scheduleCost)
	builds := 0
	for i := int32(0); i < 16; i++ {
		getOrBuild(t, c, schedKey{kind: trace.OpAllreduce, algo: AllreduceRing, n: 16, rank: i, size: 2048}, &builds)
	}
	st := c.Stats()
	if st.Entries >= 16 {
		t.Fatalf("no eviction happened: %d entries resident", st.Entries)
	}
	if st.Evictions == 0 {
		t.Fatal("eviction counter not incremented")
	}
	if st.SizeBytes > st.CapBytes && st.Entries > 1 {
		t.Fatalf("cache over bound with %d entries: %d > %d", st.Entries, st.SizeBytes, st.CapBytes)
	}
}

// TestScheduleCacheProcessWideStats: expanding through the public API
// touches the process-wide cache.
func TestScheduleCacheProcessWideStats(t *testing.T) {
	before := ScheduleCache()
	if _, err := Expand(collectiveMix(8, 512), Config{}); err != nil {
		t.Fatal(err)
	}
	after := ScheduleCache()
	if after.Hits+after.Misses <= before.Hits+before.Misses {
		t.Fatalf("process-wide cache untouched by Expand: before %+v after %+v", before, after)
	}
}
