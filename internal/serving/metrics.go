package serving

import (
	"sync/atomic"
	"time"
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
	done     atomic.Uint64 // successful responses

	batches      atomic.Uint64 // batches executed
	batchedReqs  atomic.Uint64 // sum of executed batch sizes
	largestBatch atomic.Uint64

	queuedNS  atomic.Uint64 // total pre-execution wait of done requests
	latencyNS atomic.Uint64 // total enqueue→response time of done requests

	// hist is the enqueue→response latency distribution behind the
	// rolling p50/p95/p99 in /ei_metrics and the autopilot's per-tick
	// quantile deltas.
	hist latencyHistogram

	// Stage decomposition of every completed request: scheduler backlog
	// (enqueue → a replica pulled it), batch assembly (pull → execution
	// start: the deadline gate and stacking, microseconds), and plan
	// execution (InferBatch). Permanent HDR histograms plus
	// duration sums for the Prometheus histogram export.
	qwHist latencyHistogram
	bwHist latencyHistogram
	exHist latencyHistogram
	qwNS   atomic.Uint64
	bwNS   atomic.Uint64
	exNS   atomic.Uint64

	// Early-exit accounting (earlyExit pipelines only). totalSteps is
	// the recurrent window length T; stepsSum accumulates per-sample
	// steps consumed; exitStats[s-1] is exit head s's counter and
	// latency distribution — the `exits` block of /ei_metrics.
	earlyExit  bool
	totalSteps int
	stepsSum   atomic.Uint64
	exitStats  []exitStat
}

// exitStat is one exit head's counters: how many samples retired at this
// step and their enqueue→response latency distribution.
type exitStat struct {
	count atomic.Uint64
	hist  latencyHistogram
}

// observeExit records one sample retiring after `steps` RNN steps with
// the given end-to-end latency.
func (m *modelMetrics) observeExit(steps int, total time.Duration) {
	if steps < 1 || steps > len(m.exitStats) {
		return
	}
	m.stepsSum.Add(uint64(steps))
	s := &m.exitStats[steps-1]
	s.count.Add(1)
	s.hist.Observe(total)
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

func (m *modelMetrics) observeDone(queued, total time.Duration) {
	m.done.Add(1)
	m.queuedNS.Add(uint64(queued))
	m.latencyNS.Add(uint64(total))
	m.hist.Observe(total)
}

// observeStages records one completed request's stage decomposition.
func (m *modelMetrics) observeStages(qw, bw, ex time.Duration) {
	m.qwHist.Observe(qw)
	m.bwHist.Observe(bw)
	m.exHist.Observe(ex)
	m.qwNS.Add(uint64(qw))
	m.bwNS.Add(uint64(bw))
	m.exNS.Add(uint64(ex))
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

func stageLatency(h *latencyHistogram, sumNS uint64, n uint64) *StageLatency {
	if n == 0 {
		return nil
	}
	s := h.Snapshot()
	return &StageLatency{
		AvgMS: float64(sumNS) / float64(n) / 1e6,
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
	// high). Per-interval quantiles come from LatencySnapshot deltas.
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

// HistogramExport hands one raw HDR histogram to the Prometheus
// exposition layer (which renders real bucket series; the JSON view only
// carries quantile summaries).
type HistogramExport struct {
	Stage string // "latency", "queue_wait", "batch_wait", or "exec"
	Label string // identifying label key: "model" or "tenant"
	Value string // label value
	Snap  LatencySnapshot
	SumNS uint64 // total observed duration, the histogram _sum
}

// HistogramExports snapshots every per-model and per-tenant histogram
// (end-to-end latency plus the three stage histograms) for /metrics.
func (e *Engine) HistogramExports() []HistogramExport {
	e.mu.RLock()
	pipes := make([]*pipeline, 0, len(e.pipes))
	for _, p := range e.pipes {
		pipes = append(pipes, p)
	}
	e.mu.RUnlock()
	var out []HistogramExport
	for _, p := range pipes {
		m := &p.met
		out = append(out,
			HistogramExport{"latency", "model", p.model, m.hist.Snapshot(), m.latencyNS.Load()},
			HistogramExport{"queue_wait", "model", p.model, m.qwHist.Snapshot(), m.qwNS.Load()},
			HistogramExport{"batch_wait", "model", p.model, m.bwHist.Snapshot(), m.bwNS.Load()},
			HistogramExport{"exec", "model", p.model, m.exHist.Snapshot(), m.exNS.Load()},
		)
	}
	for _, ts := range e.tenants.all {
		m := &ts.met
		// The tenant latency _sum is reconstructed from the stage sums
		// (qw + bw + ex spans enqueue → response exactly).
		latSum := m.qwNS.Load() + m.bwNS.Load() + m.exNS.Load()
		out = append(out,
			HistogramExport{"latency", "tenant", ts.cfg.Name, m.hist.Snapshot(), latSum},
			HistogramExport{"queue_wait", "tenant", ts.cfg.Name, m.qwHist.Snapshot(), m.qwNS.Load()},
			HistogramExport{"batch_wait", "tenant", ts.cfg.Name, m.bwHist.Snapshot(), m.bwNS.Load()},
			HistogramExport{"exec", "tenant", ts.cfg.Name, m.exHist.Snapshot(), m.exNS.Load()},
		)
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
		Completed:        m.done.Load(),
		RejectedOverload: m.rejected.Load(),
		ExpiredDeadline:  m.expired.Load(),
		Errors:           m.errored.Load(),
		Batches:          m.batches.Load(),
		LargestBatch:     int(m.largestBatch.Load()),
	}
	if s.Batches > 0 {
		s.AvgBatch = float64(m.batchedReqs.Load()) / float64(s.Batches)
	}
	if s.Completed > 0 {
		s.AvgQueueMS = float64(m.queuedNS.Load()) / float64(s.Completed) / 1e6
		s.AvgLatencyMS = float64(m.latencyNS.Load()) / float64(s.Completed) / 1e6
		h := m.hist.Snapshot()
		s.P50MS = float64(h.Quantile(0.50)) / 1e6
		s.P95MS = float64(h.Quantile(0.95)) / 1e6
		s.P99MS = float64(h.Quantile(0.99)) / 1e6
		s.QueueWait = stageLatency(&m.qwHist, m.qwNS.Load(), s.Completed)
		s.BatchWait = stageLatency(&m.bwHist, m.bwNS.Load(), s.Completed)
		s.Exec = stageLatency(&m.exHist, m.exNS.Load(), s.Completed)
	}
	if m.earlyExit {
		s.EarlyExit = true
		s.ExitThreshold = exitThr
		s.TotalSteps = m.totalSteps
		var exited uint64
		for i := range m.exitStats {
			es := &m.exitStats[i]
			c := es.count.Load()
			if c == 0 {
				continue
			}
			exited += c
			eh := es.hist.Snapshot()
			s.Exits = append(s.Exits, ExitStats{
				Step:  i + 1,
				Count: c,
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
