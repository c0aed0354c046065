package libei

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"openei/internal/autopilot"
	"openei/internal/obs"
	"openei/internal/parallel"
	"openei/internal/serving"
	"openei/internal/tensor"
)

// Inferer is the serving entry point the infer route dispatches through.
// The engine itself satisfies it; an autopilot.Pilot satisfies it too,
// adding SLO-driven tier routing and edge→cloud offload in front of the
// same engine.
type Inferer interface {
	Infer(ctx context.Context, model string, x *tensor.Tensor) (serving.Result, error)
	InferWithDeadline(model string, x *tensor.Tensor, d time.Duration) (serving.Result, error)
}

// SetEngine attaches the serving engine: the high-throughput inference
// path. It registers the built-in algorithm
//
//	GET /ei_algorithms/serving/infer?model={name}&input={csv}[&deadline_ms=N][&tenant=name]
//
// which coalesces concurrent callers into batches while every replica is
// busy, and enables GET /ei_metrics, the queue/batch/latency counters.
// Under overload the infer route rejects with HTTP 429; a request whose
// deadline lapses in the queue gets HTTP 408. The tenant parameter selects
// the admission and scheduling class configured in serving.Config.Tenants;
// unknown or missing tenants ride the default class.
func (s *Server) SetEngine(e *serving.Engine) {
	s.mu.Lock()
	s.engine = e
	s.mu.Unlock()
	_ = s.Register(Registration{Scenario: "serving", Name: "infer", Fn: s.servingInfer})
}

// Engine returns the attached serving engine, or nil.
func (s *Server) Engine() *serving.Engine {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.engine
}

// SetInferer routes /ei_algorithms/serving/infer through i instead of the
// raw engine; pass nil to restore direct engine dispatch. SetEngine must
// still be called so /ei_metrics has the engine's counters. Any autopilot
// status hook is cleared: /ei_metrics must not keep advertising a pilot
// the serving path no longer flows through.
func (s *Server) SetInferer(i Inferer) {
	s.mu.Lock()
	s.inferer = i
	s.pilot = nil
	s.mu.Unlock()
}

// SetAutopilot hooks a pilot into the node: the infer route dispatches
// through it (tier routing + offload) and /ei_metrics gains its Status
// under "autopilot". A nil pilot detaches both.
func (s *Server) SetAutopilot(p *autopilot.Pilot) {
	if p == nil {
		s.SetInferer(nil)
		return
	}
	s.mu.Lock()
	s.inferer = p
	s.pilot = p.Status
	s.mu.Unlock()
}

// inferDispatch returns the configured Inferer, falling back to the
// engine; nil when neither is attached.
func (s *Server) inferDispatch() Inferer {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.inferer != nil {
		return s.inferer
	}
	if s.engine != nil {
		return s.engine
	}
	return nil
}

// InferResult is the wire form of one batched inference answer.
type InferResult struct {
	Model      string  `json:"model"`
	Class      int     `json:"class"`
	Confidence float64 `json:"confidence"`
	BatchSize  int     `json:"batch_size"`
	QueuedMS   float64 `json:"queued_ms"`
	LatencyMS  float64 `json:"model_latency_ms"`
	// StepsUsed/TotalSteps report adaptive computation on early-exit
	// plans: the recurrent steps this sample actually consumed out of the
	// compiled window. Both are 0 for feed-forward models; StepsUsed ==
	// TotalSteps when early exit is disabled or the sample never crossed
	// the confidence threshold.
	StepsUsed  int `json:"steps_used,omitempty"`
	TotalSteps int `json:"total_steps,omitempty"`
	// ServedBy is the model that actually answered: the active autopilot
	// tier under a Swap route, or "cloud:{model}" when the request was
	// offloaded.
	ServedBy string `json:"served_by,omitempty"`
	// Offloaded marks answers executed on the cloud fallback.
	Offloaded bool `json:"offloaded,omitempty"`
	// TraceID is the request's trace ID (present when the node has a
	// tracer attached); resolve it at /ei_trace?id= — or /gw_trace?id=
	// for the stitched cross-process view when the request came through a
	// gateway. Sampling decides whether the trace was *stored*; the ID is
	// always reported so a slow answer can at least be looked up.
	TraceID string `json:"trace_id,omitempty"`
}

// servingInfer backs /ei_algorithms/serving/infer.
func (s *Server) servingInfer(args url.Values) (any, error) {
	e := s.inferDispatch()
	if e == nil {
		return nil, fmt.Errorf("%w: node has no serving engine", ErrNotFound)
	}
	model := args.Get("model")
	if model == "" {
		return nil, fmt.Errorf("%w: missing model parameter", ErrBadRequest)
	}
	raw := args.Get("input")
	if raw == "" {
		return nil, fmt.Errorf("%w: missing input parameter", ErrBadRequest)
	}
	fields := strings.Split(raw, ",")
	data := make([]float32, len(fields))
	for i, f := range fields {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 32)
		if err != nil {
			return nil, fmt.Errorf("%w: input[%d]=%q", ErrBadRequest, i, f)
		}
		data[i] = float32(v)
	}
	x, err := tensor.NewFrom(data, len(data))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	// Tenant and deadline both travel on the context so they survive any
	// dispatch path — raw engine or autopilot pilot — without widening the
	// Inferer interface.
	ctx := serving.WithTenant(context.Background(), args.Get("tenant"))
	if rawMS := args.Get("deadline_ms"); rawMS != "" {
		ms, err := strconv.ParseFloat(rawMS, 64)
		if err != nil || ms <= 0 {
			return nil, fmt.Errorf("%w: deadline_ms=%q", ErrBadRequest, rawMS)
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, time.Now().Add(time.Duration(ms*float64(time.Millisecond))))
		defer cancel()
	}
	// The node-side trace: adopt gateway-propagated context (same trace
	// ID, same sampling verdict) or start a fresh trace for direct
	// clients. The trace buffer rides the same context as the tenant, so
	// serving-pipeline and autopilot-offload spans land without interface
	// changes. All obs calls are nil-safe no-ops when no tracer is set.
	tracer := s.Tracer()
	tc, _ := obs.ParseTraceContext(args.Get(obs.TraceArg))
	tb := tracer.Begin(tc)
	// The root span ID is allocated up front so pipeline-stage spans can
	// parent to it; the completed span is recorded once the infer returns.
	root := tracer.NextID()
	tb.SetRoot(root)
	ctx = obs.NewContext(ctx, tb)
	start := time.Now()
	res, err := e.Infer(ctx, model, x)
	total := time.Since(start)
	tb.AddWithID(root, obs.StageInfer, tb.Parent(), start, total,
		obs.Str("model", model), obs.Str("node", s.NodeID))
	// Finish drops our reference and may recycle tb into another request:
	// read the ID first, touch tb no more after.
	traceID := tb.IDString()
	tracer.Finish(tb, err != nil, total)
	if err != nil {
		return nil, err
	}
	return InferResult{
		Model:      model,
		Class:      res.Class,
		Confidence: res.Confidence,
		BatchSize:  res.BatchSize,
		QueuedMS:   float64(res.Queued) / float64(time.Millisecond),
		LatencyMS:  float64(res.ModelLatency) / float64(time.Millisecond),
		StepsUsed:  res.StepsUsed,
		TotalSteps: res.TotalSteps,
		ServedBy:   res.Model,
		Offloaded:  strings.HasPrefix(res.Model, "cloud:"),
		TraceID:    traceID,
	}, nil
}

// RemoteOffloader executes autopilot offloads on a remote serving
// endpoint — another edge, a gateway, or an openei-cloud instance running
// a serving tier. It satisfies autopilot.Offloader.
type RemoteOffloader struct {
	// Client talks to the fallback node's libei API.
	Client *Client
	// Model, when non-empty, overrides the model name requested remotely
	// (the cloud may publish the tier ladder's base model under a
	// different alias).
	Model string
}

// Offload implements autopilot.Offloader.
func (o *RemoteOffloader) Offload(ctx context.Context, model string, input []float32, deadline time.Duration) (int, float64, error) {
	name := o.Model
	if name == "" {
		name = model
	}
	res, err := o.Client.InferCtx(ctx, name, input, deadline)
	if err != nil {
		return 0, 0, err
	}
	return res.Class, res.Confidence, nil
}

// Metrics is the wire form of /ei_metrics.
type Metrics struct {
	NodeID string `json:"node_id"`
	// Serving is per-model queue/batch/latency counters; empty when no
	// model has been served yet, null when no engine is attached.
	Serving []serving.ModelStats `json:"serving"`
	// Tenants is the per-tenant admission/scheduling counter set
	// (admitted, shed, expired, served, latency quantiles), highest
	// priority first; omitted when no engine is attached. The chaos
	// harness asserts SLO attainment and shed confinement against it.
	Tenants []serving.TenantStats `json:"tenants,omitempty"`
	// QueueDepth and QueueCap are the serving engine's aggregate queue
	// fill across models — the cheap signal a gateway reads for
	// least-loaded routing without walking the per-model stats.
	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`
	// SchedulerPending is the package manager's real-time queue backlog.
	SchedulerPending int `json:"scheduler_pending"`
	// Parallel is the process-wide kernel pool: width, grain, job/shard
	// counters, and utilization (busy worker time over pool capacity).
	Parallel parallel.Stats `json:"parallel"`
	// Autopilot is the SLO control loop's state (current tier, switch
	// history, offload ratio, SLO attainment); absent when no pilot is
	// attached. A gateway reads tier_index from it to prefer nodes still
	// serving their high-accuracy tier.
	Autopilot *autopilot.Status `json:"autopilot,omitempty"`
	// Trace is the request tracer's sampling/retention counters; absent
	// when no tracer is attached.
	Trace *obs.Stats `json:"trace,omitempty"`
}

// metricsSnapshot builds the one metrics document both views serve:
// /ei_metrics marshals it as JSON and /metrics renders the same value in
// Prometheus exposition format — a field added here appears in both.
func (s *Server) metricsSnapshot() Metrics {
	m := Metrics{NodeID: s.NodeID, Parallel: parallel.Snapshot()}
	if s.Manager != nil {
		m.SchedulerPending = s.Manager.PendingJobs()
	}
	if e := s.Engine(); e != nil {
		m.Serving = e.Stats()
		if m.Serving == nil {
			m.Serving = []serving.ModelStats{}
		}
		m.QueueDepth, m.QueueCap = e.QueueDepth()
		m.Tenants = e.TenantStats()
	}
	s.mu.RLock()
	pilot := s.pilot
	tracer := s.tracer
	s.mu.RUnlock()
	if pilot != nil {
		st := pilot()
		m.Autopilot = &st
	}
	if tracer != nil {
		st := tracer.Stats()
		m.Trace = &st
	}
	return m
}

func (s *Server) handleMetrics(w http.ResponseWriter) {
	writeJSON(w, http.StatusOK, envelope{OK: true, Result: s.metricsSnapshot()})
}
