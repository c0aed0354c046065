package serving

import (
	"fmt"
	"math"
	"sync"
	"time"

	"openei/internal/obs"
	"openei/internal/pkgmgr"
	"openei/internal/tensor"
)

// request is one enqueued single-sample inference.
type request struct {
	x        *tensor.Tensor
	tenant   *tenantState
	deadline time.Time // zero means none
	enq      time.Time
	deq      time.Time     // when a replica pulled it off the queue
	resp     chan response // buffered(1): workers never block on it

	// tb is the request's trace buffer (nil when untraced). The engine
	// takes a reference before submit; finishTrace releases it on every
	// path that answers the request, so a worker landing spans after the
	// caller gave up cannot race the buffer's recycle.
	tb *obs.TraceBuf
}

// finishTrace releases the request's hold on its trace, optionally
// flagging the trace as failed (which forces it to be kept).
func (r *request) finishTrace(failed bool) {
	if r.tb == nil {
		return
	}
	if failed {
		r.tb.MarkErr()
	}
	r.tb.Unref()
}

type response struct {
	res Result
	err error
}

// pipeline is one model's queue → replica pool chain. There is no
// dispatcher between the two: each replica worker pulls its own batch, so
// an idle replica answers at once and requests coalesce only while every
// replica is busy — the wait is the running batch's execution, never a
// timer.
type pipeline struct {
	model      string
	cfg        Config
	inputShape []int

	q    *schedQueue
	quit chan struct{}
	met  modelMetrics
	wg   sync.WaitGroup
	// reps is the replica pool. Each replica is confined to its worker
	// goroutine except for the early-exit threshold knob, which is the
	// plan's one atomic field and may be flipped from the engine.
	reps []*pkgmgr.Replica

	// sendMu makes stop() a barrier against in-flight submits: once
	// closed is set under the write lock, no request can enter the queue
	// and every queued request has its token in q.ready, so draining
	// workers see the whole backlog, the shutdown sweep sees what they
	// left, and nothing is ever stranded without a response.
	sendMu sync.RWMutex
	closed bool
	// drain (written before quit closes) tells workers to answer the
	// backlog before exiting instead of leaving it to the sweep.
	drain bool

	// hold, when set by an in-package test before any request is
	// submitted, runs on the worker right before each InferBatch: a test
	// parks the replica there to build a backlog deterministically.
	hold func()
}

func newPipeline(model string, cfg Config, tenants *tenantTable, reps []*pkgmgr.Replica) *pipeline {
	p := &pipeline{
		model:      model,
		cfg:        cfg,
		inputShape: reps[0].InputShape(),
		q:          newSchedQueue(cfg.QueueDepth, tenants),
		quit:       make(chan struct{}),
		reps:       reps,
	}
	p.met.replicas = len(reps)
	p.met.queueCap = cfg.QueueDepth
	p.met.backend = reps[0].Backend()
	p.met.kernels = reps[0].Kernels()
	if reps[0].SupportsEarlyExit() {
		p.met.earlyExit = true
		p.met.totalSteps = reps[0].RNNSteps()
		p.met.exits = make([]obs.Histogram, p.met.totalSteps)
	}
	p.wg.Add(len(reps))
	for _, r := range reps {
		go p.work(r)
	}
	return p
}

// normalize coerces a request tensor to the model's per-sample input shape:
// the exact shape, a batch-of-one of it, or a flat vector of the right
// element count are all accepted.
func (p *pipeline) normalize(x *tensor.Tensor) (*tensor.Tensor, error) {
	want := p.inputShape
	elems := 1
	for _, d := range want {
		elems *= d
	}
	switch {
	case shapeEq(x.Shape(), want):
		return x, nil
	case x.Dims() == len(want)+1 && x.Dim(0) == 1 && shapeEq(x.Shape()[1:], want):
		return x.Reshape(want...)
	case x.Dims() == 1 && x.Len() == elems:
		return x.Reshape(want...)
	default:
		return nil, fmt.Errorf("%w: model %s wants one sample of shape %v, got %v",
			ErrBadInput, p.model, want, x.Shape())
	}
}

func shapeEq(a, b []int) bool {
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

// submit applies admission control: non-blocking enqueue under the
// tenant scheduler, immediate ErrOverloaded when the bounded queue is
// full. Per-tenant rate admission (the token bucket) has already run in
// Engine.infer; this is the shared-capacity gate.
func (p *pipeline) submit(req *request) error {
	p.sendMu.RLock()
	defer p.sendMu.RUnlock()
	if p.closed {
		return ErrClosed
	}
	if p.q.push(req) {
		p.met.enqueued.Add(1)
		req.tenant.met.admitted.Add(1)
		return nil
	}
	p.met.rejected.Add(1)
	req.tenant.met.rejected.Add(1)
	return fmt.Errorf("%w: model %s queue full (depth %d)", ErrOverloaded, p.model, p.cfg.QueueDepth)
}

// expire answers one request with ErrDeadline and accounts it.
func (p *pipeline) expire(r *request, now time.Time) {
	p.met.expired.Add(1)
	r.tenant.met.expired.Add(1)
	r.finishTrace(true)
	r.resp <- response{err: fmt.Errorf("%w: model %s: waited %v", ErrDeadline, p.model, now.Sub(r.enq))}
}

// sweep rejects everything still queued at shutdown. submit cannot add more
// once stop has flipped closed, so this sees the final queue.
func (p *pipeline) sweep() {
	for _, r := range p.q.drainAll() {
		r.finishTrace(true)
		r.resp <- response{err: ErrClosed}
	}
}

// next blocks until a request is queued and returns the scheduler's pick
// (strict priority tiers first, weighted-fair within a tier), or nil once
// the pipeline is stopping and this worker has nothing left to answer.
func (p *pipeline) next() *request {
	select {
	case <-p.q.ready:
		return p.q.take()
	case <-p.quit:
		if p.drain {
			return p.poll()
		}
		return nil
	}
}

// poll takes the scheduler's pick if a request is queued right now.
func (p *pipeline) poll() *request {
	select {
	case <-p.q.ready:
		return p.q.take()
	default:
		return nil
	}
}

// work is one replica's loop: pull a batch, run it, fan results back out.
// The batch is the first queued request plus whatever else is already
// queued, up to MaxBatch — it never waits for stragglers. The request and
// sample slices are reused across batches so the steady-state loop stays
// off the heap (the replica's own activations already are, via its arena).
func (p *pipeline) work(rep *pkgmgr.Replica) {
	defer p.wg.Done()
	var xs []*tensor.Tensor
	batch := make([]*request, 0, p.cfg.MaxBatch)
	for first := p.next(); first != nil; first = p.next() {
		batch = append(batch[:0], first)
		for len(batch) < p.cfg.MaxBatch {
			r := p.poll()
			if r == nil {
				break
			}
			batch = append(batch, r)
		}
		// Deadline hygiene at the only gate: running a request whose
		// deadline lapsed in the queue would burn kernel time on an answer
		// nobody is waiting for; drop it with ErrDeadline instead.
		now := time.Now()
		live := batch[:0]
		xs = xs[:0]
		for _, r := range batch {
			if !r.deadline.IsZero() && now.After(r.deadline) {
				p.expire(r, now)
				continue
			}
			r.deq = now
			live = append(live, r)
			xs = append(xs, r.x)
		}
		if len(live) == 0 {
			continue
		}
		p.met.observeBatch(len(live))
		if p.hold != nil {
			p.hold()
		}
		start := time.Now()
		res, err := rep.InferBatch(xs)
		if err != nil {
			p.met.errored.Add(uint64(len(live)))
			for _, r := range live {
				r.tenant.met.errored.Add(1)
				r.finishTrace(true)
				r.resp <- response{err: err}
			}
			continue
		}
		done := time.Now()
		for i, r := range live {
			queued := start.Sub(r.enq)
			total := done.Sub(r.enq)
			qw := r.deq.Sub(r.enq)
			bw := start.Sub(r.deq)
			ex := done.Sub(start)
			p.met.stages.observe(qw, bw, ex)
			var stepsUsed int
			if res.TotalSteps > 0 {
				stepsUsed = res.Steps[i]
				p.met.observeExit(stepsUsed, total)
			}
			r.tenant.met.stages.observe(qw, bw, ex)
			if r.tb != nil {
				// Stage starts are offsets from enq, not the stamps' own wall
				// readings, so the three spans abut exactly even when a
				// stamp's wall and monotonic reads were taken apart.
				root := r.tb.Root()
				r.tb.Add(obs.StageQueueWait, root, r.enq, qw)
				r.tb.Add(obs.StageBatchWait, root, r.enq.Add(qw), bw)
				r.tb.Add(obs.StageExec, root, r.enq.Add(qw+bw), ex,
					obs.Str("model", p.model),
					obs.Int("batch", int64(len(live))),
					obs.Int("steps_used", int64(stepsUsed)))
				r.finishTrace(false)
			}
			r.resp <- response{res: Result{
				Model:        p.model,
				Tenant:       r.tenant.cfg.Name,
				Class:        res.Classes[i],
				Confidence:   res.Confidences[i],
				BatchSize:    len(live),
				Queued:       queued,
				StepsUsed:    stepsUsed,
				TotalSteps:   res.TotalSteps,
				ModelLatency: res.ModelLatency,
				ModelEnergy:  res.ModelEnergy,
			}}
		}
	}
}

// stats snapshots this pipeline's counters.
func (p *pipeline) stats() ModelStats {
	return p.met.snapshot(p.model, p.q.len(), p.exitThreshold())
}

// exitThreshold reads the live knob off the first replica's plan (every
// replica carries the same value), mapping the disabled sentinel (+Inf)
// to 0 so the value is JSON-representable.
func (p *pipeline) exitThreshold() float64 {
	if !p.met.earlyExit {
		return 0
	}
	thr := p.reps[0].ExitThreshold()
	if math.IsInf(thr, 1) {
		return 0
	}
	return thr
}

// setExitThreshold flips the live early-exit knob on every replica;
// reports whether the pipeline's plans support early exit at all.
func (p *pipeline) setExitThreshold(thr float64) bool {
	for _, r := range p.reps {
		r.SetExitThreshold(thr)
	}
	return p.met.earlyExit
}

// stop retires the pipeline: new submits are rejected with ErrClosed (a
// live engine redirects them to the pipeline that replaced this one) and
// the call returns once every worker has exited and every request has been
// answered. With drain set nothing is dropped — workers answer the whole
// backlog first (the swap-out half of Engine.Swap and SetReplicas);
// otherwise they finish their in-flight batch and what is still queued is
// rejected with ErrClosed.
func (p *pipeline) stop(drain bool) {
	p.sendMu.Lock()
	if !p.closed {
		p.closed = true
		p.drain = drain
		close(p.quit)
	}
	p.sendMu.Unlock()
	p.wg.Wait()
	p.sweep()
}
