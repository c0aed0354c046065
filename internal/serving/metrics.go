package serving

import (
	"sync/atomic"
	"time"

	"openei/internal/obs"
)

// modelMetrics is one pipeline's counter set, updated with atomics so the
// hot path never takes a lock for accounting.
type modelMetrics struct {
	replicas int
	queueCap int
	backend  string
	kernels  string

	enqueued atomic.Uint64 // admitted into the queue
	rejected atomic.Uint64 // ErrOverloaded at admission
	expired  atomic.Uint64 // ErrDeadline (at admission or in queue)
	errored  atomic.Uint64 // inference errors, counted per request

	batches      atomic.Uint64 // batches executed
	batchedReqs  atomic.Uint64 // sum of executed batch sizes
	largestBatch atomic.Uint64

	// stages is the latency decomposition of every completed request;
	// its latency histogram also counts them, and feeds the autopilot's
	// per-tick quantile deltas.
	stages stageSet

	// Early-exit accounting (earlyExit pipelines only). totalSteps is
	// the recurrent window length T; stepsSum accumulates per-sample
	// steps consumed; exits[s-1] is the enqueue→response latency
	// distribution of samples retiring at exit head s — the `exits`
	// block of /ei_metrics.
	earlyExit  bool
	totalSteps int
	stepsSum   atomic.Uint64
	exits      []obs.Histogram
}

// observeExit records one sample retiring after `steps` RNN steps with
// the given end-to-end latency.
func (m *modelMetrics) observeExit(steps int, total time.Duration) {
	if steps < 1 || steps > len(m.exits) {
		return
	}
	m.stepsSum.Add(uint64(steps))
	m.exits[steps-1].Observe(total)
}

func (m *modelMetrics) observeBatch(n int) {
	m.batches.Add(1)
	m.batchedReqs.Add(uint64(n))
	for {
		cur := m.largestBatch.Load()
		if uint64(n) <= cur || m.largestBatch.CompareAndSwap(cur, uint64(n)) {
			return
		}
	}
}

// stageSet is the latency decomposition shared by the per-model and
// per-tenant blocks: the enqueue→response latency of every completed
// request and its three stages — scheduler backlog (enqueue → a replica
// pulled it), batch assembly (pull → execution start: the deadline gate
// and stacking, microseconds), and plan execution (InferBatch). The
// stages partition the latency exactly, so every sum the JSON and
// Prometheus views need is one of the histograms' own.
type stageSet struct {
	latency, queueWait, batchWait, exec obs.Histogram
}

func (s *stageSet) observe(qw, bw, ex time.Duration) {
	s.queueWait.Observe(qw)
	s.batchWait.Observe(bw)
	s.exec.Observe(ex)
	s.latency.Observe(qw + bw + ex)
}

// stageSummary is a stageSet's JSON view: the completed-request count n
// and one summary per histogram, all nil while n is 0.
type stageSummary struct {
	n                                   uint64
	latency, queueWait, batchWait, exec *StageLatency
}

func (s *stageSet) summary() stageSummary {
	lat := s.latency.Snapshot()
	sum := stageSummary{n: lat.Count}
	if sum.n > 0 {
		sum.latency = stageLatency(lat, sum.n)
		sum.queueWait = stageLatency(s.queueWait.Snapshot(), sum.n)
		sum.batchWait = stageLatency(s.batchWait.Snapshot(), sum.n)
		sum.exec = stageLatency(s.exec.Snapshot(), sum.n)
	}
	return sum
}

// exports names the four histograms for the Prometheus exposition:
// <group>_<stage>_ms{<label>="<value>"}.
func (s *stageSet) exports(group, label, value string) []obs.PromHistogram {
	return []obs.PromHistogram{
		{Name: group + "_latency_ms", Label: label, Value: value, Snap: s.latency.Snapshot()},
		{Name: group + "_queue_wait_ms", Label: label, Value: value, Snap: s.queueWait.Snapshot()},
		{Name: group + "_batch_wait_ms", Label: label, Value: value, Snap: s.batchWait.Snapshot()},
		{Name: group + "_exec_ms", Label: label, Value: value, Snap: s.exec.Snapshot()},
	}
}

// StageLatency is one stage's latency summary inside the per-model and
// per-tenant blocks of /ei_metrics. (Quantiles are HDR bucket estimates,
// like the top-level p50/p95/p99; the raw buckets feed the Prometheus
// histogram families instead of the JSON view.)
type StageLatency struct {
	AvgMS float64 `json:"avg_ms"`
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
}

// stageLatency summarizes one stage over n completed requests; AvgMS ×
// n is the stage's summed duration.
func stageLatency(s obs.HistogramSnapshot, n uint64) *StageLatency {
	return &StageLatency{
		AvgMS: float64(s.Sum) / float64(n) / 1e6,
		P50MS: float64(s.Quantile(0.50)) / 1e6,
		P95MS: float64(s.Quantile(0.95)) / 1e6,
		P99MS: float64(s.Quantile(0.99)) / 1e6,
	}
}

// ModelStats is the JSON-friendly snapshot of one model's serving counters,
// exposed at GET /ei_metrics.
type ModelStats struct {
	Model    string `json:"model"`
	Replicas int    `json:"replicas"`
	// Backend is the execution backend of the pipeline's compiled plans
	// ("float32", "int8", "int4", or "layer-walk" for the fallback path)
	// — tier names imply backends, and this is where that claim is
	// observable.
	Backend string `json:"backend"`
	// Kernels is the compute-kernel dispatch of those plans on this
	// process: the base GEMM kernel ("packed-fma" float / "qgemm-avx2"
	// quantized / "scalar" fallback), "+direct-conv" when a convolution
	// runs the im2col-free stencil. Empty on the layer-walk path.
	Kernels string `json:"kernels,omitempty"`

	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`

	Enqueued         uint64 `json:"enqueued"`
	Completed        uint64 `json:"completed"`
	RejectedOverload uint64 `json:"rejected_overload"`
	ExpiredDeadline  uint64 `json:"expired_deadline"`
	Errors           uint64 `json:"errors"`

	Batches      uint64  `json:"batches"`
	AvgBatch     float64 `json:"avg_batch"`
	LargestBatch int     `json:"largest_batch"`

	AvgQueueMS   float64 `json:"avg_queue_ms"`
	AvgLatencyMS float64 `json:"avg_latency_ms"`

	// P50MS/P95MS/P99MS are enqueue→response latency quantiles over the
	// model's whole serving history (HDR-style bucket estimates, ≤ ~6%
	// high). Per-interval quantiles come from Engine.LatencyOf deltas.
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`

	// Stage decomposition of completed requests (present once any have
	// completed): scheduler backlog, batch assembly, and plan execution.
	// The three sum to ≈ avg_latency_ms.
	QueueWait *StageLatency `json:"queue_wait_ms,omitempty"`
	BatchWait *StageLatency `json:"batch_wait_ms,omitempty"`
	Exec      *StageLatency `json:"exec_ms,omitempty"`

	// Early-exit block (early-exit-capable pipelines only). ExitThreshold
	// is the live confidence knob (0 when early exit is disabled);
	// TotalSteps is the recurrent window length T; MeanStepsUsed averages
	// per-sample steps over completed requests (== TotalSteps when
	// disabled); Exits lists the per-exit-head distributions.
	EarlyExit     bool        `json:"early_exit,omitempty"`
	ExitThreshold float64     `json:"exit_threshold,omitempty"`
	TotalSteps    int         `json:"total_steps,omitempty"`
	MeanStepsUsed float64     `json:"mean_steps_used,omitempty"`
	Exits         []ExitStats `json:"exits,omitempty"`
}

// ExitStats is one exit head's share of the `exits` block in
// /ei_metrics: how many completed samples retired at this RNN step
// (Step == TotalSteps is the no-exit tail) and their enqueue→response
// latency quantiles. Count is a monotone counter; the quantiles are
// gauges derived from the cumulative distribution.
type ExitStats struct {
	Step  int     `json:"step"`
	Count uint64  `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
}

// HistogramExports snapshots every per-model and per-tenant histogram
// (end-to-end latency plus the three stages) as the Prometheus families
// serving_<stage>_ms{model=} and tenant_<stage>_ms{tenant=}.
func (e *Engine) HistogramExports() []obs.PromHistogram {
	e.mu.RLock()
	pipes := make([]*pipeline, 0, len(e.pipes))
	for _, p := range e.pipes {
		pipes = append(pipes, p)
	}
	e.mu.RUnlock()
	var out []obs.PromHistogram
	for _, p := range pipes {
		out = append(out, p.met.stages.exports("serving", "model", p.model)...)
	}
	for _, ts := range e.tenants.all {
		out = append(out, ts.met.stages.exports("tenant", "tenant", ts.cfg.Name)...)
	}
	return out
}

func (m *modelMetrics) snapshot(model string, depth int, exitThr float64) ModelStats {
	s := ModelStats{
		Model:            model,
		Replicas:         m.replicas,
		Backend:          m.backend,
		Kernels:          m.kernels,
		QueueDepth:       depth,
		QueueCap:         m.queueCap,
		Enqueued:         m.enqueued.Load(),
		RejectedOverload: m.rejected.Load(),
		ExpiredDeadline:  m.expired.Load(),
		Errors:           m.errored.Load(),
		Batches:          m.batches.Load(),
		LargestBatch:     int(m.largestBatch.Load()),
	}
	if s.Batches > 0 {
		s.AvgBatch = float64(m.batchedReqs.Load()) / float64(s.Batches)
	}
	st := m.stages.summary()
	s.Completed = st.n
	if st.n > 0 {
		s.AvgQueueMS = st.queueWait.AvgMS + st.batchWait.AvgMS
		s.AvgLatencyMS = st.latency.AvgMS
		s.P50MS, s.P95MS, s.P99MS = st.latency.P50MS, st.latency.P95MS, st.latency.P99MS
		s.QueueWait, s.BatchWait, s.Exec = st.queueWait, st.batchWait, st.exec
	}
	if m.earlyExit {
		s.EarlyExit = true
		s.ExitThreshold = exitThr
		s.TotalSteps = m.totalSteps
		var exited uint64
		for i := range m.exits {
			eh := m.exits[i].Snapshot()
			if eh.Count == 0 {
				continue
			}
			exited += eh.Count
			s.Exits = append(s.Exits, ExitStats{
				Step:  i + 1,
				Count: eh.Count,
				P50MS: float64(eh.Quantile(0.50)) / 1e6,
				P95MS: float64(eh.Quantile(0.95)) / 1e6,
			})
		}
		if exited > 0 {
			s.MeanStepsUsed = float64(m.stepsSum.Load()) / float64(exited)
		}
	}
	return s
}
