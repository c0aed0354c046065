// Package parallel is the process-wide compute runtime behind the dense
// kernels in internal/tensor and internal/nn: a size-capped worker pool
// that shards index ranges across cores, with a serial fallback below a
// tunable work grain so tiny tensors never pay dispatch overhead.
//
// The pool is deliberately global. Every hot kernel (matmul, im2col
// convolution, pooling, activation maps) funnels through the same workers,
// so total kernel concurrency never exceeds the configured width no matter
// how many serving replicas or training loops run at once — the pool is the
// single throttle between the model layer and the machine.
//
// Callers participate: Do executes shards on the calling goroutine too, and
// waiting callers drain their own job, so nested Do (a batch-sharded
// convolution whose per-image matmul shards rows) cannot deadlock even when
// every worker is busy.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultGrainWork is the default serial cutoff in fused-op units (one
// multiply-add, one comparison, one element copied — the caller's unit of
// per-item cost). Kernels below it run on the calling goroutine: dispatch
// costs a few microseconds, so work that finishes in tens of microseconds
// is cheaper serial. The default corresponds to a 64×64×128 matmul.
const DefaultGrainWork = 1 << 19

// maxProcs caps the pool so a bad knob cannot spawn unbounded goroutines.
const maxProcs = 256

var (
	mu      sync.Mutex
	helpers int  // running worker goroutines (procs-1; the caller is a worker too)
	started bool // tasks channel initialized and helpers spawned

	// Helper capacity (wall ns × helpers, width−1) accumulated up to
	// widthSince, the last width change; utilization divides helper busy
	// time by it.
	capacityNS float64
	widthSince time.Time

	procs     atomic.Int32 // configured width, 0 = not yet initialized
	grainWork atomic.Int64 // serial cutoff in fused-op units, 0 = default

	// tasks carries jobs to helper goroutines. Buffered so Do's
	// non-blocking offers and SetProcs's stop tokens never stall.
	tasks chan *job

	// Counters behind Snapshot, updated lock-free on the hot path.
	statParallel atomic.Uint64 // jobs that went through the pool
	statSerial   atomic.Uint64 // Do calls that ran inline
	statChunks   atomic.Uint64 // shards executed
	statBusyNS   atomic.Uint64 // summed helper shard execution time
)

// job is one Do invocation. Shards are claimed by atomically advancing
// next, so the caller and any helpers that pick the job up load-balance
// without further coordination. Jobs are pooled; refs counts the
// goroutines still holding the pointer so a job is only recycled once the
// last of them lets go (a helper may receive a job long after its work is
// done and must still see consistent fields).
type job struct {
	fn    func(lo, hi int)
	n     int
	chunk int
	next  atomic.Int64
	refs  atomic.Int32
	wg    sync.WaitGroup
}

var jobPool = sync.Pool{New: func() any { return new(job) }}

// ensure initializes the pool on first use under mu.
func ensure() {
	if started {
		return
	}
	started = true
	tasks = make(chan *job, 1024)
	widthSince = time.Now()
	p := int(procs.Load())
	if p == 0 {
		p = runtime.GOMAXPROCS(0)
		if p > maxProcs {
			p = maxProcs
		}
		procs.Store(int32(p))
	}
	for helpers < p-1 {
		helpers++
		go worker()
	}
}

// Procs returns the pool width (worker goroutines plus the participating
// caller). Kernels go serial whenever it is 1.
func Procs() int {
	if p := int(procs.Load()); p > 0 {
		return p
	}
	mu.Lock()
	defer mu.Unlock()
	ensure()
	return int(procs.Load())
}

// SetProcs resizes the pool to p workers (including the calling
// goroutine's share); p <= 0 resets to GOMAXPROCS. The width is capped at
// 256. Safe to call at any time; in-flight jobs finish on the old width.
func SetProcs(p int) {
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > maxProcs {
		p = maxProcs
	}
	mu.Lock()
	defer mu.Unlock()
	ensure() // initialize tasks before publishing the new width
	now := time.Now()
	capacityNS += float64(now.Sub(widthSince)) * float64(procs.Load()-1)
	widthSince = now
	procs.Store(int32(p))
	for helpers < p-1 {
		helpers++
		go worker()
	}
	for helpers > p-1 {
		helpers--
		tasks <- nil // stop token: the receiving helper exits
	}
}

// GrainWork returns the current serial cutoff in fused-op units.
func GrainWork() int {
	if g := grainWork.Load(); g > 0 {
		return int(g)
	}
	return DefaultGrainWork
}

// SetGrainWork sets the serial cutoff; g <= 0 resets the default. Lower
// values parallelize smaller tensors (more dispatch overhead), higher
// values keep mid-size kernels serial (less).
func SetGrainWork(g int) {
	if g < 0 {
		g = 0
	}
	grainWork.Store(int64(g))
}

// GrainItems converts the pool's fused-op grain into a per-shard item
// count for a kernel whose items (rows, images, planes) each cost perItem
// fused ops: shards never carry less than one grain of work, so sub-grain
// tails don't get dispatched.
func GrainItems(perItem int) int {
	if perItem <= 0 {
		return 1
	}
	g := GrainWork() / perItem
	if g < 1 {
		g = 1
	}
	return g
}

// Worth reports whether a kernel with the given total fused-op count
// should take the parallel path. Kernels use it as the cheap gate before
// building a closure for Do, keeping the serial path allocation-free.
func Worth(work int) bool {
	return work >= GrainWork() && Procs() > 1
}

// Do splits [0, n) into contiguous shards and executes fn on them across
// the pool, returning when every shard is done. fn must be safe to call
// concurrently on disjoint ranges and must not panic. grain is the minimum
// items per shard; n <= grain (or a pool width of 1) runs fn(0, n) on the
// calling goroutine. The caller always executes shards itself, so Do may
// be invoked from inside another Do without deadlocking.
func Do(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	p := Procs()
	if p <= 1 || n <= grain {
		statSerial.Add(1)
		fn(0, n)
		return
	}
	// Aim for two chunks per worker so an early-finishing worker can steal
	// a second helping, without going below the grain.
	chunk := (n + 2*p - 1) / (2 * p)
	if chunk < grain {
		chunk = grain
	}
	chunks := (n + chunk - 1) / chunk
	if chunks <= 1 {
		statSerial.Add(1)
		fn(0, n)
		return
	}
	j := jobPool.Get().(*job)
	j.fn, j.n, j.chunk = fn, n, chunk
	j.next.Store(0)
	j.wg.Add(chunks)
	offers := chunks - 1
	if offers > p-1 {
		offers = p - 1
	}
	// Account for every offer up front: a helper may receive the job and
	// release it before the offer loop finishes, so refs must already
	// cover it. Failed offers are refunded below.
	j.refs.Store(int32(1 + offers))
	sent := 0
	for ; sent < offers; sent++ {
		select {
		case tasks <- j:
		default:
			// Pool backlog: stop offering, the caller will run the rest.
			goto claimed
		}
	}
claimed:
	if sent < offers {
		j.refs.Add(int32(sent - offers))
	}
	statParallel.Add(1)
	j.run(false)
	j.wg.Wait()
	j.release()
}

// run claims and executes shards until the job is exhausted. Only helpers
// time their shards: a caller's own shards — and, inside a helper's
// shard, a nested Do's — run on a goroutine that is not pool capacity or
// is already being timed. Timing per shard, before wg.Done, means a Do
// that has returned has all of its busy time recorded.
func (j *job) run(timed bool) {
	for {
		hi := int(j.next.Add(int64(j.chunk)))
		lo := hi - j.chunk
		if lo >= j.n {
			return
		}
		if hi > j.n {
			hi = j.n
		}
		if timed {
			start := time.Now()
			j.fn(lo, hi)
			statBusyNS.Add(uint64(time.Since(start)))
		} else {
			j.fn(lo, hi)
		}
		statChunks.Add(1)
		j.wg.Done()
	}
}

// release drops one reference, recycling the job when the last holder —
// possibly a helper that received it from the queue after the caller
// already returned — lets go.
func (j *job) release() {
	if j.refs.Add(-1) == 0 {
		j.fn = nil
		jobPool.Put(j)
	}
}

// worker is one helper goroutine's loop: execute whatever jobs arrive
// until a stop token from SetProcs.
func worker() {
	for j := range tasks {
		if j == nil {
			return
		}
		j.run(true)
		j.release()
	}
}

// Stats is a snapshot of the pool's lifetime counters, exposed at
// GET /ei_metrics.
type Stats struct {
	// Workers is the configured pool width (including the caller's share).
	Workers int `json:"workers"`
	// GrainWork is the serial cutoff in fused-op units.
	GrainWork int `json:"grain_work"`
	// ParallelJobs counts kernels dispatched across the pool.
	ParallelJobs uint64 `json:"parallel_jobs"`
	// SerialJobs counts Do calls that ran inline (below grain or width 1).
	SerialJobs uint64 `json:"serial_jobs"`
	// Chunks counts shards executed.
	Chunks uint64 `json:"chunks"`
	// BusyMS is the summed shard execution time of the helper
	// goroutines. Shards a caller runs itself are not counted: the caller
	// is not pool capacity, and a nested Do inside a helper's shard is
	// already inside that shard's time.
	BusyMS float64 `json:"busy_ms"`
	// Utilization is BusyMS over the helpers' lifetime capacity (wall
	// time × the helper count, width−1, in force at the time): the
	// fraction of it spent inside kernels, in [0, 1]; 0 at width 1.
	Utilization float64 `json:"utilization"`
}

// Snapshot returns the pool's counters.
func Snapshot() Stats {
	s := Stats{
		Workers:      Procs(),
		GrainWork:    GrainWork(),
		ParallelJobs: statParallel.Load(),
		SerialJobs:   statSerial.Load(),
		Chunks:       statChunks.Load(),
	}
	busy := statBusyNS.Load()
	s.BusyMS = float64(busy) / 1e6
	mu.Lock()
	capacity := capacityNS + float64(time.Since(widthSince))*float64(procs.Load()-1)
	mu.Unlock()
	if capacity > 0 {
		s.Utilization = float64(busy) / capacity
	}
	return s
}
