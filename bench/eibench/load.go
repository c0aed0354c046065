package main

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"openei/internal/libei"
	"openei/internal/plan"
)

// workers is the workload's client goroutine count: one keep-alive
// connection each, never more than the host has processors, so the
// generator does not queue on itself.
func (w *workload) workers() int {
	return min(w.clients, runtime.NumCPU())
}

// outcome classifies one request.
type outcome uint8

const (
	answered   outcome = iota // verified-correct answer
	wrongClass                // answered, but the answer failed verification
	failed                    // transport error, refusal or any non-2xx
)

// sample is one measured request.
type sample struct {
	latency time.Duration // closed loop: around InferAs; open loop: from due time
	late    time.Duration // open loop: sent − due
	encode  time.Duration // traced runs: InferAs entry → request at the transport
	outcome outcome
}

// verifier checks every answer against the float32 reference (float32
// workloads) or against the input's first measured answer (int8: each
// replica self-calibrates, so the reference is the served plan itself).
type verifier struct {
	w     *workload
	pools []pool
	// first[model][input] is the int8 workload's first measured class + 1;
	// 0 means not yet answered.
	first [][]atomic.Int32
}

func newVerifier(w *workload, pools []pool) *verifier {
	v := &verifier{w: w, pools: pools}
	v.reset()
	return v
}

// reset forgets the first answers; called when the measured window opens.
func (v *verifier) reset() {
	v.first = make([][]atomic.Int32, len(v.pools))
	for i := range v.first {
		v.first[i] = make([]atomic.Int32, poolSize)
	}
}

func (v *verifier) ok(p pick, res libei.InferResult) bool {
	name := v.w.models[p.model].name
	if res.Model != name || res.ServedBy != name {
		return false
	}
	if math.IsNaN(res.Confidence) || res.Confidence <= 0 || res.Confidence > 1 {
		return false
	}
	if v.w.backend == plan.Float32 {
		return res.Class == v.pools[p.model].ref[p.input]
	}
	first := &v.first[p.model][p.input]
	if first.CompareAndSwap(0, int32(res.Class)+1) {
		return true
	}
	return first.Load() == int32(res.Class)+1
}

// int8Agreement is the share of distinct inputs answered in the window
// whose first answer equals the float32 reference class.
func (v *verifier) int8Agreement() (ratio float64, distinct int) {
	agree := 0
	for m := range v.first {
		for i := range v.first[m] {
			if c := v.first[m][i].Load(); c != 0 {
				distinct++
				if int(c)-1 == v.pools[m].ref[i] {
					agree++
				}
			}
		}
	}
	if distinct == 0 {
		return 0, 0
	}
	return float64(agree) / float64(distinct), distinct
}

// segmentResult is one measured segment.
type segmentResult struct {
	samples []sample
	elapsed time.Duration // start → last answer
	cpu     time.Duration // process user+sys CPU over the segment
}

// cpuTime is the process's user+sys CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// loadGen drives one stack with one workload's traffic.
type loadGen struct {
	s      *stack
	v      *verifier
	seed   int64
	nextID atomic.Uint64
}

// call sends one request and classifies the answer. due is when the
// request's latency clock began: the zero time means now (closed loop).
func (g *loadGen) call(p pick, due time.Time) sample {
	ctx := context.Background()
	var cc *clientCall
	if g.s.rec != nil {
		cc = &clientCall{id: g.nextID.Add(1)}
		ctx = context.WithValue(ctx, clientCallKey{}, cc)
	}
	sent := time.Now()
	if due.IsZero() {
		due = sent
	}
	res, err := g.s.infer(ctx, p, g.v.pools)
	done := time.Now()
	smp := sample{latency: done.Sub(due), late: sent.Sub(due)}
	switch {
	case err != nil:
		smp.outcome = failed
	case !g.v.ok(p, res):
		smp.outcome = wrongClass
	}
	if cc != nil {
		smp.encode = cc.sendStart.Sub(sent)
		if rec := g.s.rec; rec.on.Load() {
			rec.add(spanClient, cc.id, due, done)
		}
	}
	return smp
}

// segment runs one measured (or warm-up) segment: for span, or for
// exactly count requests when count > 0. index selects the segment's
// seeded stream; warm-up uses -1.
func (g *loadGen) segment(index int, span time.Duration, count int) segmentResult {
	w := g.s.w
	workers := w.workers()
	perWorker := make([][]sample, workers)
	var arrivals []arrival
	var next atomic.Int64
	if w.open {
		arrivals = schedule(g.seed, index, w, span, count)
	}
	cpu0 := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		k := k
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w.open {
				perWorker[k] = g.openWorker(start, arrivals, &next)
				return
			}
			quota := -1 // by the clock
			if count > 0 {
				quota = count / workers
				if k < count%workers {
					quota++
				}
			}
			rng := rand.New(rand.NewSource(subSeed(g.seed, "closed", index*workers+k)))
			perWorker[k] = g.closedWorker(rng, start.Add(span), quota)
		}()
	}
	wg.Wait()
	res := segmentResult{elapsed: time.Since(start), cpu: cpuTime() - cpu0}
	for _, s := range perWorker {
		res.samples = append(res.samples, s...)
	}
	return res
}

// closedWorker sends its next request when the previous one is answered,
// until the deadline, or for exactly quota requests when quota >= 0.
func (g *loadGen) closedWorker(rng *rand.Rand, deadline time.Time, quota int) []sample {
	var out []sample
	for len(out) < quota || quota < 0 && time.Now().Before(deadline) {
		out = append(out, g.call(drawPick(rng, g.s.w), time.Time{}))
	}
	return out
}

// openWorker takes the next due arrival off the shared schedule, waits for
// its due time and sends it. A request that finds every worker busy is
// sent late, and the wait is counted in its latency.
func (g *loadGen) openWorker(start time.Time, arrivals []arrival, next *atomic.Int64) []sample {
	var out []sample
	for {
		i := int(next.Add(1)) - 1
		if i >= len(arrivals) {
			return out
		}
		due := start.Add(arrivals[i].due)
		time.Sleep(time.Until(due))
		out = append(out, g.call(arrivals[i].pick, due))
	}
}

// canary is the host-noise detector: a 1 ms sleeper that counts how
// often, and by how much at worst, it overshoots by more than 20 ms — a
// whole-process stall imposed by the shared host, not by the program.
type canary struct {
	stop chan struct{}
	done chan struct{}

	stalls int
	maxMS  float64
}

const stallThreshold = 20 * time.Millisecond

func startCanary() *canary {
	c := &canary{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		for {
			select {
			case <-c.stop:
				return
			default:
			}
			t0 := time.Now()
			time.Sleep(time.Millisecond)
			if over := time.Since(t0) - time.Millisecond; over > stallThreshold {
				c.stalls++
				c.maxMS = math.Max(c.maxMS, float64(over)/1e6)
			}
		}
	}()
	return c
}

// end stops the canary and returns its counts.
func (c *canary) end() (stalls int, maxMS float64) {
	close(c.stop)
	<-c.done
	return c.stalls, c.maxMS
}
