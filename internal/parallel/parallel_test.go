package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// withPool forces a deterministic pool configuration for a test and
// restores defaults afterwards.
func withPool(t *testing.T, procs, grain int) {
	t.Helper()
	SetProcs(procs)
	SetGrainWork(grain)
	t.Cleanup(func() {
		SetProcs(0)
		SetGrainWork(0)
	})
}

// Do must cover [0, n) exactly once, whatever the pool shape.
func TestDoCoversRangeExactlyOnce(t *testing.T) {
	withPool(t, 4, 1)
	for _, n := range []int{1, 2, 3, 7, 8, 63, 64, 65, 1000, 4096} {
		hits := make([]int32, n)
		Do(n, 1, func(lo, hi int) {
			if lo < 0 || hi > n || lo >= hi {
				t.Errorf("bad shard [%d,%d) for n=%d", lo, hi, n)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d executed %d times", n, i, h)
			}
		}
	}
}

func TestDoZeroAndNegative(t *testing.T) {
	withPool(t, 4, 1)
	called := false
	Do(0, 1, func(lo, hi int) { called = true })
	Do(-5, 1, func(lo, hi int) { called = true })
	if called {
		t.Error("Do must not invoke fn for n <= 0")
	}
}

// Below the grain Do must run inline on the calling goroutine.
func TestDoSerialFallback(t *testing.T) {
	withPool(t, 4, 1)
	var calls int // racy if fn ever ran off-goroutine; -race would catch it
	Do(10, 100, func(lo, hi int) {
		if lo != 0 || hi != 10 {
			t.Errorf("serial fallback got shard [%d,%d), want [0,10)", lo, hi)
		}
		calls++
	})
	if calls != 1 {
		t.Errorf("serial fallback ran fn %d times", calls)
	}
}

// Worth is the kernel-side gate: small work or a width-1 pool stays serial.
func TestWorth(t *testing.T) {
	withPool(t, 4, 1000)
	if Worth(999) {
		t.Error("work below grain should not be worth parallelizing")
	}
	if !Worth(1000) {
		t.Error("work at grain should be worth parallelizing")
	}
	SetProcs(1)
	if Worth(1 << 30) {
		t.Error("width-1 pool should never be worth parallelizing")
	}
}

// Nested Do must not deadlock even when every worker is busy: callers
// drain their own jobs.
func TestNestedDo(t *testing.T) {
	withPool(t, 2, 1)
	var total atomic.Int64
	Do(8, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			Do(16, 1, func(ilo, ihi int) {
				total.Add(int64(ihi - ilo))
			})
		}
	})
	if got := total.Load(); got != 8*16 {
		t.Errorf("nested Do executed %d inner items, want %d", got, 8*16)
	}
}

// Many goroutines sharing the pool concurrently must each see a complete,
// exactly-once execution of their own job.
func TestConcurrentDo(t *testing.T) {
	withPool(t, 4, 1)
	const goroutines, n = 16, 257
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				var sum atomic.Int64
				Do(n, 1, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						sum.Add(int64(i))
					}
				})
				if got := sum.Load(); got != n*(n-1)/2 {
					t.Errorf("sum = %d, want %d", got, n*(n-1)/2)
				}
			}
		}()
	}
	wg.Wait()
}

// Resizing the pool mid-traffic must not lose work.
func TestSetProcsResize(t *testing.T) {
	withPool(t, 1, 1)
	for _, p := range []int{4, 2, 8, 1, 3} {
		SetProcs(p)
		if got := Procs(); got != p {
			t.Fatalf("Procs() = %d after SetProcs(%d)", got, p)
		}
		var sum atomic.Int64
		Do(1024, 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				sum.Add(1)
			}
		})
		if sum.Load() != 1024 {
			t.Fatalf("procs=%d: executed %d items, want 1024", p, sum.Load())
		}
	}
}

func TestSetProcsCapsAndDefaults(t *testing.T) {
	withPool(t, 4, 1)
	SetProcs(1 << 20)
	if got := Procs(); got != maxProcs {
		t.Errorf("Procs() = %d, want cap %d", got, maxProcs)
	}
	SetProcs(0)
	if got := Procs(); got < 1 {
		t.Errorf("Procs() = %d after reset, want >= 1", got)
	}
}

func TestGrainWork(t *testing.T) {
	withPool(t, 2, 0)
	if got := GrainWork(); got != DefaultGrainWork {
		t.Errorf("default grain = %d, want %d", got, DefaultGrainWork)
	}
	SetGrainWork(123)
	if got := GrainWork(); got != 123 {
		t.Errorf("grain = %d, want 123", got)
	}
	SetGrainWork(-1)
	if got := GrainWork(); got != DefaultGrainWork {
		t.Errorf("grain = %d after reset, want default", got)
	}
}

func TestSnapshotCounters(t *testing.T) {
	withPool(t, 4, 1)
	before := Snapshot()
	Do(100, 1, func(lo, hi int) {})    // parallel
	Do(100, 1000, func(lo, hi int) {}) // serial fallback
	SetProcs(1)
	Do(100, 1, func(lo, hi int) {}) // width-1 serial
	after := Snapshot()
	if after.ParallelJobs <= before.ParallelJobs {
		t.Error("parallel job counter did not advance")
	}
	if after.SerialJobs < before.SerialJobs+2 {
		t.Errorf("serial job counter advanced by %d, want >= 2", after.SerialJobs-before.SerialJobs)
	}
	if after.Chunks <= before.Chunks {
		t.Error("chunk counter did not advance")
	}
	if after.Workers != 1 || after.GrainWork != 1 {
		t.Errorf("snapshot config = %d workers / grain %d", after.Workers, after.GrainWork)
	}
	if after.Utilization < 0 || after.Utilization > 1.000001 {
		t.Errorf("utilization %v out of range", after.Utilization)
	}
}

// resetUtilization starts a fresh accounting window, so earlier tests'
// idle time cannot mask an over-count.
func resetUtilization() {
	mu.Lock()
	capacityNS, widthSince = 0, time.Now()
	mu.Unlock()
	statBusyNS.Store(0)
}

// spin busies the calling goroutine for d of wall time.
func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// paired is the shard body of a two-shard job that must run on two
// goroutines: each shard spins until its sibling has started, then runs
// fn. One goroutine runs its shards one at a time, so the job proceeds
// only once the helper holds a shard — a test's helper busy time is then
// never zero by scheduling accident.
func paired(fn func()) func(lo, hi int) {
	var started atomic.Int32
	return func(lo, hi int) {
		started.Add(1)
		for started.Load() < 2 {
		}
		fn()
	}
}

// Utilization is busy time over the capacity the pool actually had:
// shrinking the pool after a busy stretch must not inflate the ratio.
func TestUtilizationAfterShrink(t *testing.T) {
	withPool(t, 4, 1)
	resetUtilization()
	// Four shards on four workers, each busy for 5ms of its own time.
	Do(4, 1, func(lo, hi int) { spin(5 * time.Millisecond) })
	SetProcs(1)
	if u := Snapshot().Utilization; u <= 0 || u > 1 {
		t.Errorf("utilization %v after shrinking 4 -> 1 workers, want (0, 1]", u)
	}
}

// Callers run shards of their own jobs; only the helpers are pool
// capacity. Four concurrent callers on a width-2 pool (one helper) each
// run two 20ms shards: counting the callers' shards as pool time would
// read well above 1.
func TestUtilizationConcurrentCallers(t *testing.T) {
	withPool(t, 2, 1)
	resetUtilization()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			Do(2, 1, paired(func() { spin(20 * time.Millisecond) }))
		}()
	}
	wg.Wait()
	if u := Snapshot().Utilization; u <= 0 || u > 1 {
		t.Errorf("utilization %v with 4 callers on a width-2 pool, want (0, 1]", u)
	}
}

// A nested Do inside a helper's shard runs on that helper, whose time is
// already being counted; timing the inner shards too would count it
// twice.
func TestUtilizationNestedDo(t *testing.T) {
	withPool(t, 2, 1)
	resetUtilization()
	Do(2, 1, paired(func() {
		Do(2, 1, func(lo, hi int) { spin(10 * time.Millisecond) })
	}))
	if u := Snapshot().Utilization; u <= 0 || u > 1 {
		t.Errorf("utilization %v with nested Do on a width-2 pool, want (0, 1]", u)
	}
}
