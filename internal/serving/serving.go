// Package serving is the node's inference serving engine: the layer that
// turns the paper's single-request libei endpoint into something that can
// absorb heavy concurrent traffic (the "millions of users" the OpenEI
// vision statement gestures at).
//
// Architecture, per model:
//
//		clients → bounded queue → replica pool (each pulls its batch) → responses
//
//	  - Admission control: the queue is bounded (Config.QueueDepth). When it
//	    is full the request is rejected immediately with ErrOverloaded, which
//	    libei maps to HTTP 429 — shedding load beats queueing it forever.
//	  - Work-conserving batching: a free replica takes the scheduler's next
//	    request plus whatever else is already queued, up to Config.MaxBatch,
//	    and stacks them into one batch tensor. Nothing ever waits for
//	    stragglers: an idle replica answers a lone request at once, and
//	    requests coalesce only while every replica is busy, when the wait
//	    is the running batch's execution time and costs nothing extra.
//	  - Replica pool: Config.Replicas private clones of the model execute
//	    batches concurrently. This deliberately bypasses the package
//	    manager's single-worker real-time scheduler: the scheduler protects a
//	    constrained accelerator, while the pool exploits spare CPU cores.
//	  - Deadlines: requests carry an optional deadline (InferWithDeadline or
//	    a context deadline). A request whose deadline passes while it waits
//	    in the queue is dropped with ErrDeadline instead of wasting a batch
//	    slot on an answer nobody is waiting for.
package serving

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"openei/internal/obs"
	"openei/internal/parallel"
	"openei/internal/pkgmgr"
	"openei/internal/tensor"
)

// Engine errors.
var (
	// ErrOverloaded is returned when a model's queue is full; libei maps it
	// to HTTP 429.
	ErrOverloaded = errors.New("serving: overloaded")
	// ErrDeadline is returned when a request's deadline expires before a
	// replica picks it up.
	ErrDeadline = errors.New("serving: deadline expired in queue")
	// ErrClosed is returned for requests submitted to a closed engine.
	ErrClosed = errors.New("serving: engine closed")
	// ErrBadInput is returned when a request tensor does not match the
	// model's input shape; libei maps it to HTTP 400.
	ErrBadInput = errors.New("serving: bad input")
)

// Config tunes the serving engine. The zero value means defaults.
type Config struct {
	// MaxBatch is the largest batch a replica pulls off the queue at once
	// (default 8).
	MaxBatch int
	// Replicas is the number of model clones executing batches
	// concurrently (default 2).
	Replicas int
	// QueueDepth bounds the per-model request queue; beyond it requests
	// are rejected with ErrOverloaded (default 64).
	QueueDepth int
	// Procs caps the process-wide parallel kernel pool that the dense
	// kernels (matmul, convolution, pooling) shard across. 0 keeps the
	// pool's current width (all cores by default). The pool is global:
	// the last engine configured wins.
	Procs int
	// ParallelGrain sets the kernel pool's serial cutoff in fused-op
	// units; kernels below it run on the submitting goroutine. 0 keeps
	// the current grain (parallel.DefaultGrainWork by default).
	ParallelGrain int
	// Tenants declares the admission and scheduling classes requests may
	// carry (WithTenant): per-tenant token-bucket admission, strict
	// priority tiers at dispatch, weighted-fair sharing within a tier.
	// Empty means single-tenant behavior (every request rides the
	// default class, unlimited, FIFO).
	Tenants []TenantConfig
	// DefaultTenant names the class unattributed or undeclared tenants
	// are accounted to (default "default"). Declaring a tenant with this
	// name in Tenants lets the operator rate-limit the catch-all class.
	DefaultTenant string
	// ExitThreshold is the initial early-exit confidence threshold
	// applied to every pipeline whose compiled plan supports it (a
	// recurrent model with a classification head): a sample retires from
	// its batch at the first RNN step whose head confidence reaches the
	// threshold. Values outside (0, 1] — including the zero value —
	// disable early exit. Tune per model at runtime with
	// Engine.SetExitThreshold.
	ExitThreshold float64
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	return c
}

// Result is one request's share of a batched inference.
type Result struct {
	// Model is the pipeline that actually served the request — under a
	// Swap route this is the active tier, not the name the client asked
	// for.
	Model string
	// Tenant is the admission class the request was accounted to.
	Tenant string
	// Class and Confidence are this sample's prediction.
	Class      int
	Confidence float64
	// BatchSize is the size of the micro-batch the request rode in.
	BatchSize int
	// Queued is the time spent waiting before a replica started the batch.
	Queued time.Duration
	// StepsUsed and TotalSteps report early-exit consumption when the
	// serving plan is early-exit-capable: the sample used StepsUsed of
	// TotalSteps RNN steps (StepsUsed < TotalSteps means it retired at
	// the confidence threshold). Both are 0 for feed-forward models.
	StepsUsed  int
	TotalSteps int
	// ModelLatency and ModelEnergy are the hardware cost model's numbers
	// for the whole batch (the ALEM view of the run).
	ModelLatency time.Duration
	ModelEnergy  float64
}

// Engine serves batched inference over a package manager's loaded models.
// Pipelines are created lazily per model on first use; their replicas are
// point-in-time snapshots of the loaded weights and do not track later
// changes — call Reset after reloading or retraining a model. Close must be
// called; it drains and stops every pipeline.
type Engine struct {
	mgr     *pkgmgr.Manager
	cfg     Config
	tenants *tenantTable

	mu      sync.RWMutex
	pipes   map[string]*pipeline
	routes  map[string]string  // public name → serving model (Swap)
	exitThr map[string]float64 // per-model threshold overrides (SetExitThreshold)
	closed  bool
}

// NewEngine returns an engine over the manager's loaded models. A
// non-zero Procs or ParallelGrain reconfigures the process-wide kernel
// pool as a side effect.
func NewEngine(mgr *pkgmgr.Manager, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	if cfg.Procs > 0 {
		parallel.SetProcs(cfg.Procs)
	}
	if cfg.ParallelGrain > 0 {
		parallel.SetGrainWork(cfg.ParallelGrain)
	}
	return &Engine{
		mgr: mgr, cfg: cfg,
		tenants: newTenantTable(cfg.Tenants, cfg.DefaultTenant),
		pipes:   map[string]*pipeline{}, routes: map[string]string{},
		exitThr: map[string]float64{},
	}
}

// Config returns the engine's effective (defaulted) configuration.
func (e *Engine) Config() Config { return e.cfg }

// Infer enqueues one single-sample request for the named model and blocks
// until a replica answers, the context is done, or admission rejects it.
// A context deadline becomes the request's queue deadline; a context
// tenant (WithTenant) selects the request's admission and scheduling
// class.
func (e *Engine) Infer(ctx context.Context, model string, x *tensor.Tensor) (Result, error) {
	var deadline time.Time
	if d, ok := ctx.Deadline(); ok {
		deadline = d
	}
	return e.infer(ctx, model, x, deadline)
}

// InferWithDeadline is Infer with an explicit budget: the request must be
// picked up by a replica within d of submission or it is dropped with
// ErrDeadline.
func (e *Engine) InferWithDeadline(model string, x *tensor.Tensor, d time.Duration) (Result, error) {
	if d <= 0 {
		return Result{}, fmt.Errorf("%w: non-positive deadline %v", ErrBadInput, d)
	}
	return e.infer(context.Background(), model, x, time.Now().Add(d))
}

func (e *Engine) infer(ctx context.Context, model string, x *tensor.Tensor, deadline time.Time) (Result, error) {
	tenant := e.tenants.resolve(TenantFrom(ctx))
	// Per-tenant rate admission runs before any queue is touched: a
	// tenant past its token bucket is shed here, so a hot client's
	// excess never competes for shared queue capacity.
	if tenant.bucket != nil && !tenant.bucket.allow(time.Now()) {
		tenant.met.throttled.Add(1)
		return Result{}, fmt.Errorf("%w: tenant %q over admission rate (%.3g/s, burst %d)",
			ErrOverloaded, tenant.cfg.Name, tenant.cfg.RatePerSec, tenant.cfg.Burst)
	}
	var req *request
	// A Swap or Reset can retire the pipeline between lookup and submit;
	// ErrClosed from a live engine means "re-resolve the route and try the
	// replacement", so a hot-swap never surfaces as a client failure.
	for attempt := 0; ; attempt++ {
		p, err := e.pipelineFor(model)
		if err != nil {
			return Result{}, err
		}
		sample, err := p.normalize(x)
		if err != nil {
			return Result{}, err
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			p.met.expired.Add(1)
			tenant.met.expired.Add(1)
			return Result{}, fmt.Errorf("%w: model %s: expired before enqueue", ErrDeadline, model)
		}
		req = &request{x: sample, tenant: tenant, deadline: deadline, enq: time.Now(), resp: make(chan response, 1)}
		// A traced request holds a reference on its trace buffer for the
		// pipeline's lifetime of it: the worker (or expiry sweep) releases
		// it on the answering path, so spans recorded after the caller's
		// context is cancelled still land before the buffer recycles.
		if tb := obs.FromContext(ctx); tb != nil {
			tb.Ref()
			req.tb = tb
		}
		if err := p.submit(req); err != nil {
			req.finishTrace(true)
			if errors.Is(err, ErrClosed) && attempt < 8 {
				continue
			}
			return Result{}, err
		}
		break
	}
	select {
	case r := <-req.resp:
		return r.res, r.err
	case <-ctx.Done():
		// The request still runs (or is rejected) behind our back; the
		// buffered resp channel keeps the worker from blocking.
		return Result{}, ctx.Err()
	}
}

// resolveLocked maps a public model name through the Swap route table to
// the model actually serving it. Caller holds e.mu (either mode).
func (e *Engine) resolveLocked(model string) string {
	if t, ok := e.routes[model]; ok {
		return t
	}
	return model
}

// Route returns the model that currently serves requests for the given
// name: the Swap target when a route is installed, the name itself
// otherwise.
func (e *Engine) Route(model string) string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.resolveLocked(model)
}

// pipelineFor returns (creating on first use) the pipeline serving the
// model — routes installed by Swap are resolved first. The hot path is a
// read-locked map lookup; first-use construction clones replicas outside
// the engine lock (ensureActual), so building one model's pool never
// stalls other models' serving paths.
func (e *Engine) pipelineFor(model string) (*pipeline, error) {
	for attempt := 0; ; attempt++ {
		e.mu.RLock()
		actual := e.resolveLocked(model)
		e.mu.RUnlock()
		p, err := e.ensureActual(actual)
		if err != nil {
			return nil, err
		}
		e.mu.RLock()
		moved := e.resolveLocked(model) != actual
		e.mu.RUnlock()
		if moved && attempt < 4 {
			// A Swap re-pointed the route while we resolved/built; serve
			// from the new tier instead of a freshly retired one.
			continue
		}
		return p, nil
	}
}

// ensureActual returns (creating if needed) the pipeline keyed by the
// already-resolved model name. Replica cloning — a multi-megabyte weight
// copy per replica — happens outside the engine lock; only the map
// double-check and install are serialized.
func (e *Engine) ensureActual(actual string) (*pipeline, error) {
	e.mu.RLock()
	p, ok := e.pipes[actual]
	closed := e.closed
	e.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	if ok {
		return p, nil
	}
	reps := make([]*pkgmgr.Replica, e.cfg.Replicas)
	for i := range reps {
		r, err := e.mgr.NewReplica(actual)
		if err != nil {
			return nil, err
		}
		reps[i] = r
	}
	e.applyExitThreshold(actual, reps)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	if p, ok := e.pipes[actual]; ok {
		// Lost the build race; the extra clones are garbage-collected.
		return p, nil
	}
	p = newPipeline(actual, e.cfg, e.tenants, reps)
	e.pipes[actual] = p
	return p, nil
}

// Swap atomically re-points the public model name at target's replica
// pool: the target pipeline is built (replicas cloned and warm) before
// the route flips, then the previous pipeline is drained in the
// background — everything already queued there completes, new requests
// land on the target, and no request is dropped. It is the autopilot's
// actuator for runtime tier switching; swapping to the name itself
// removes the route.
//
// Retiring the old pipeline resets that model's cumulative serving
// counters and histogram (like Reset does): if clients also request the
// old tier's model *directly*, their next request transparently rebuilds
// its pool from the manager's weights, but its /ei_metrics history
// restarts. Tier ladders normally serve only through the public alias,
// where this does not arise.
func (e *Engine) Swap(public, target string) error {
	if _, err := e.ensureActual(target); err != nil {
		return err
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	old := e.resolveLocked(public)
	if target == public {
		delete(e.routes, public)
	} else {
		e.routes[public] = target
	}
	var oldPipe *pipeline
	if old != target {
		// Retire the old tier's pipeline unless another route still
		// resolves to it (two public names may share a tier).
		still := false
		for _, t := range e.routes {
			if t == old {
				still = true
				break
			}
		}
		if !still {
			if op, ok := e.pipes[old]; ok {
				delete(e.pipes, old)
				oldPipe = op
			}
		}
	}
	e.mu.Unlock()
	if oldPipe != nil {
		go oldPipe.stop(true)
	}
	return nil
}

// ReplicasOf reports the replica-pool width of the pipeline serving the
// named model (routes resolved), and whether such a pipeline exists.
func (e *Engine) ReplicasOf(model string) (int, bool) {
	e.mu.RLock()
	p, ok := e.pipes[e.resolveLocked(model)]
	e.mu.RUnlock()
	if !ok {
		return 0, false
	}
	return p.met.replicas, true
}

// SetReplicas resizes the named model's replica pool to n using the Swap
// machinery: a fresh pipeline with n replicas is built warm, installed in
// place of the old one, and the old one drains in the background — every
// queued request is answered and submit-vs-resize races retry onto the
// new pool, so no request is dropped. A pipeline that does not exist yet
// is built (pre-warming); resizing to the current width is a no-op. It is
// the actuator the cluster autoscaler drives from queue depth and p95.
func (e *Engine) SetReplicas(model string, n int) error {
	if n <= 0 {
		return fmt.Errorf("%w: non-positive replica count %d", ErrBadInput, n)
	}
	actual := e.Route(model)
	e.mu.RLock()
	cur, ok := e.pipes[actual]
	closed := e.closed
	e.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	if ok && cur.met.replicas == n {
		return nil
	}
	reps := make([]*pkgmgr.Replica, n)
	for i := range reps {
		r, err := e.mgr.NewReplica(actual)
		if err != nil {
			return err
		}
		reps[i] = r
	}
	e.applyExitThreshold(actual, reps)
	cfg := e.cfg
	cfg.Replicas = n
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	old := e.pipes[actual]
	if old != nil && old.met.replicas == n {
		// Lost a resize race to an identical width; keep the winner.
		e.mu.Unlock()
		return nil
	}
	e.pipes[actual] = newPipeline(actual, cfg, e.tenants, reps)
	e.mu.Unlock()
	if old != nil {
		go old.stop(true)
	}
	return nil
}

// applyExitThreshold installs the model's early-exit threshold on a
// freshly built replica set: the runtime override when SetExitThreshold
// recorded one, the engine-wide Config.ExitThreshold otherwise. No-op on
// plans without early-exit support.
func (e *Engine) applyExitThreshold(actual string, reps []*pkgmgr.Replica) {
	e.mu.RLock()
	thr, ok := e.exitThr[actual]
	e.mu.RUnlock()
	if !ok {
		thr = e.cfg.ExitThreshold
	}
	for _, r := range reps {
		r.SetExitThreshold(thr)
	}
}

// SetExitThreshold installs the live early-exit confidence threshold on
// the pipeline serving the named model (routes resolved; the pipeline is
// built if it does not exist yet) and records it so later rebuilds —
// Swap, SetReplicas, Reset — inherit it. Values outside (0, 1] disable
// early exit. Returns whether the serving plan supports early exit at
// all; the knob is a no-op (but still recorded) when it does not.
//
// This is the autopilot's continuous actuator between ladder rungs: the
// threshold trades accuracy for latency within a tier, cheaper than
// swapping tiers.
func (e *Engine) SetExitThreshold(model string, thr float64) (bool, error) {
	actual := e.Route(model)
	p, err := e.ensureActual(actual)
	if err != nil {
		return false, err
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return false, ErrClosed
	}
	e.exitThr[actual] = thr
	e.mu.Unlock()
	return p.setExitThreshold(thr), nil
}

// ExitThresholdOf reports the live early-exit threshold of the pipeline
// serving the named model (0 when early exit is disabled) and whether
// that pipeline exists and supports early exit.
func (e *Engine) ExitThresholdOf(model string) (float64, bool) {
	e.mu.RLock()
	p, ok := e.pipes[e.resolveLocked(model)]
	e.mu.RUnlock()
	if !ok || !p.met.earlyExit {
		return 0, false
	}
	return p.exitThreshold(), true
}

// LatencyOf returns the cumulative latency histogram of the pipeline
// serving the named model (routes resolved), and whether such a pipeline
// exists. Subtract successive snapshots for per-interval quantiles.
func (e *Engine) LatencyOf(model string) (obs.HistogramSnapshot, bool) {
	e.mu.RLock()
	p, ok := e.pipes[e.resolveLocked(model)]
	e.mu.RUnlock()
	if !ok {
		return obs.HistogramSnapshot{}, false
	}
	return p.met.stages.latency.Snapshot(), true
}

// Reset drops the model's pipeline, draining its queue and discarding its
// replicas, so the next request rebuilds them from the manager's current
// weights. Call it after a model is reloaded, retrained, or unloaded;
// resetting an unknown or never-served model is a no-op.
func (e *Engine) Reset(model string) {
	e.mu.Lock()
	p, ok := e.pipes[model]
	if ok {
		delete(e.pipes, model)
	}
	closed := e.closed
	e.mu.Unlock()
	if ok && !closed {
		p.stop(false)
	}
}

// QueueDepth returns the total queued requests and total queue capacity
// across all pipelines. It is the cheap load signal a front tier polls on
// every health tick: a couple of channel length reads under a read lock,
// no per-model snapshot allocation or sorting like Stats.
func (e *Engine) QueueDepth() (depth, capacity int) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, p := range e.pipes {
		depth += p.q.len()
		capacity += p.met.queueCap
	}
	return depth, capacity
}

// Stats snapshots per-model serving counters, sorted by model name.
func (e *Engine) Stats() []ModelStats {
	e.mu.RLock()
	pipes := make([]*pipeline, 0, len(e.pipes))
	for _, p := range e.pipes {
		pipes = append(pipes, p)
	}
	e.mu.RUnlock()
	out := make([]ModelStats, len(pipes))
	for i, p := range pipes {
		out[i] = p.stats()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Model < out[j].Model })
	return out
}

// Close stops every pipeline: queued requests are rejected with ErrClosed,
// in-flight batches finish, and replica workers exit. Idempotent.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	pipes := make([]*pipeline, 0, len(e.pipes))
	for _, p := range e.pipes {
		pipes = append(pipes, p)
	}
	e.mu.Unlock()
	for _, p := range pipes {
		p.stop(false)
	}
}
