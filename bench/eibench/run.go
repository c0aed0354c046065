package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"openei/internal/gateway"
	"openei/internal/nn"
	"openei/internal/parallel"
	"openei/internal/plan"
	"openei/internal/serving"
)

const (
	// segments is the measured window's split: every end-to-end metric is
	// computed per segment and the best segment is reported (see setBest),
	// so host interference spoils segments, not the run.
	segments = 5
	// tracedSegments is the traced run's window, taken as one for the
	// layer means.
	tracedSegments = 2
	// setupBoots is how many cold boots setup_s is the median of. A boot
	// takes 5–120 ms, so it takes this many for a median that holds still.
	setupBoots = 15
	// warmup covers pipeline compilation, arena growth and int8
	// self-calibration on every replica.
	warmup = 3 * time.Second
	// minInt8Agreement is the least share of distinct inputs on which the
	// served int8 plan must agree with the float32 reference.
	minInt8Agreement = 0.9
)

// options are one invocation's settings.
type options struct {
	seed     int64
	seconds  float64 // the untraced run's measured window, split into segments
	requests int     // > 0: every segment and timing loop is count-driven, no timer
	trace    bool
	outDir   string // where the traced run writes its span dump
}

func (o options) segmentSpan() time.Duration {
	return time.Duration(o.seconds / segments * float64(time.Second))
}

func (o options) warmupSpan() time.Duration {
	if o.requests > 0 {
		return 0
	}
	return warmup
}

// metricValue is one reported metric. A per-segment metric carries every
// segment (setup_s: every boot) with their min, median and max; Value is
// the best segment (setup_s: the median boot), see setBest. Samples and
// Beyond are the per-segment sample counts and, for a percentile, how many
// samples lay beyond it.
type metricValue struct {
	Unit     string    `json:"unit"`
	Value    float64   `json:"value"`
	Min      float64   `json:"min"`
	Median   float64   `json:"median"`
	Max      float64   `json:"max"`
	Segments []float64 `json:"segments,omitempty"`
	Samples  []int     `json:"samples,omitempty"`
	Beyond   []int     `json:"beyond,omitempty"`
	// Supported is false when a percentile had fewer than 10 samples
	// beyond it in some segment.
	Supported *bool `json:"supported,omitempty"`
}

type metricSet map[string]metricValue

func (m metricSet) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0 // a ratio whose base was not measured; JSON has no NaN
	}
	m[name] = metricValue{Unit: unit, Value: v, Min: v, Median: v, Max: v}
}

// setMedian reports the median of several measurements.
func (m metricSet) setMedian(name, unit string, per []float64) {
	s := summarize(per)
	m[name] = metricValue{Unit: unit, Value: s.median, Min: s.min, Median: s.median, Max: s.max, Segments: per}
}

// setBest reports a per-segment metric by its best segment. On the shared
// reference host interference arrives in epochs of 10–60 s that raise
// latency and CPU per request in two to four of a run's five segments at
// once, so their median moved by up to 2.5× between runs of one binary;
// interference only ever adds, every periodic behaviour of the stack
// itself (GC, batch timers, the 2 s health probe) fits inside one segment,
// and the best segment is the one the host left alone.
func (m metricSet) setBest(name, unit string, per []float64, higherIsBetter bool) {
	s := summarize(per)
	v := metricValue{Unit: unit, Value: s.min, Min: s.min, Median: s.median, Max: s.max, Segments: per}
	if higherIsBetter {
		v.Value = s.max
	}
	m[name] = v
}

// budgetRows are the per-layer metrics that telescope to the mean
// end-to-end latency of the traced run, outermost first.
var budgetRows = []string{
	"client.hop_us", "gateway.self_us", "gateway.hop_us", "libei.self_us", "serving.self_us",
	"serving.queue_wait_ms", "serving.batch_wait_ms", "serving.exec_ms",
}

// budgetRow is one row of the telescoping latency budget.
type budgetRow struct {
	Row   string  `json:"row"`
	US    float64 `json:"us"`
	Share float64 `json:"share"`
}

// workloadResult is one workload's part of the result document.
type workloadResult struct {
	Name    string   `json:"name"`
	Why     string   `json:"why"`
	Loop    string   `json:"loop"`
	Clients int      `json:"clients"`
	RateRPS float64  `json:"rate_rps,omitempty"`
	Nodes   int      `json:"nodes"`
	Models  []string `json:"models"`
	Backend string   `json:"backend"`
	LimitMS float64  `json:"limit_ms"`

	Correct    bool     `json:"correct"`
	Problems   []string `json:"problems,omitempty"`
	Attempted  int      `json:"attempted"`
	Succeeded  int      `json:"succeeded"`
	Failed     int      `json:"failed"`
	WrongClass int      `json:"wrong_class"`
	// Int8AgreeServed is, for an int8 workload, the share of distinct
	// inputs whose served class equals the float32 reference.
	Int8AgreeServed *float64 `json:"int8_agree_served,omitempty"`

	EndToEnd metricSet `json:"end_to_end,omitempty"`
	PerLayer metricSet `json:"per_layer,omitempty"`

	// Stalls of the measured window (also per-layer host.* on traced runs).
	StallCount int     `json:"stall_count"`
	StallMaxMS float64 `json:"stall_max_ms"`

	// Traced runs: the budget whose rows sum to MeanLatencyUS, and the
	// span dump's path.
	Budget        []budgetRow `json:"budget,omitempty"`
	MeanLatencyUS float64     `json:"mean_latency_us,omitempty"`
	SpanDump      string      `json:"span_dump,omitempty"`
}

func newResult(w *workload) *workloadResult {
	r := &workloadResult{
		Name: w.name, Why: w.why, Loop: "closed", Clients: w.workers(), Nodes: w.nodes,
		Backend: string(w.backend), LimitMS: w.limitMS,
	}
	if w.open {
		r.Loop, r.RateRPS = "open", w.rateRPS
	}
	for _, m := range w.models {
		r.Models = append(r.Models, m.name)
	}
	return r
}

// count folds a window's samples into the attempted/succeeded/failed tally.
func (r *workloadResult) count(samples []sample) {
	for _, s := range samples {
		r.Attempted++
		switch s.outcome {
		case answered:
			r.Succeeded++
		case wrongClass:
			r.WrongClass++
		case failed:
			r.Failed++
		}
	}
}

// verify closes the run's correctness verdict.
func (r *workloadResult) verify(w *workload, s *stack, v *verifier) {
	if r.Failed > 0 || r.WrongClass > 0 {
		r.Problems = append(r.Problems, fmt.Sprintf("%d failed and %d wrong-class of %d requests", r.Failed, r.WrongClass, r.Attempted))
	}
	if r.Attempted == 0 {
		r.Problems = append(r.Problems, "no request was sent")
	}
	for _, node := range s.engineStats() {
		for _, m := range node {
			if m.Backend != string(w.backend) {
				r.Problems = append(r.Problems, fmt.Sprintf("model %s served on backend %q, want %q", m.Model, m.Backend, w.backend))
			}
		}
	}
	if w.backend != plan.Float32 {
		ratio, distinct := v.int8Agreement()
		r.Int8AgreeServed = &ratio
		if ratio < minInt8Agreement {
			r.Problems = append(r.Problems, fmt.Sprintf("served %s plan agrees with float32 on %.3f of %d inputs, want >= %.2f", w.backend, ratio, distinct, minInt8Agreement))
		}
	}
	r.Correct = len(r.Problems) == 0
}

// firstAnswers sends one request per model of the workload through the
// gateway and verifies it — the end of a cold boot.
func firstAnswers(s *stack, v *verifier) error {
	for i, m := range s.w.models {
		p := pick{model: i, tenant: -1}
		res, err := s.infer(context.Background(), p, v.pools)
		if err != nil {
			return fmt.Errorf("first %s answer: %w", m.name, err)
		}
		if !v.ok(p, res) {
			return fmt.Errorf("first %s answer failed verification: %+v", m.name, res)
		}
	}
	return nil
}

// latenciesMS returns the ascending latencies of the verified answers.
func latenciesMS(samples []sample) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		if s.outcome == answered {
			out = append(out, float64(s.latency)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

// runWorkload runs one workload, untraced (end-to-end metrics) or traced
// (per-layer metrics).
func runWorkload(w *workload, opt options) (*workloadResult, error) {
	models, err := buildModels(w)
	if err != nil {
		return nil, err
	}
	pools := make([]pool, len(models))
	for i, m := range models {
		if pools[i], err = buildPool(opt.seed, m); err != nil {
			return nil, err
		}
	}
	v := newVerifier(w, pools)
	if opt.trace {
		return runTraced(w, opt, models, v)
	}
	return runEndToEnd(w, opt, v)
}

// runEndToEnd measures the seven end-to-end metrics with no span wrapper
// installed: the cold boots, warm-up, then the segmented window on the last
// boot's stack.
func runEndToEnd(w *workload, opt options, v *verifier) (*workloadResult, error) {
	var s *stack
	setups := make([]float64, 0, setupBoots)
	for b := 0; b < setupBoots; b++ {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		var err error
		if s, err = boot(w, nil); err != nil {
			return nil, err
		}
		if err := firstAnswers(s, v); err != nil {
			s.close()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer s.close()

	g := &loadGen{s: s, v: v, seed: opt.seed}
	g.segment(-1, opt.warmupSpan(), opt.requests)
	// Twice: the first collection only moves sync.Pool contents (net/http
	// and encoding/json buffers) to the victim cache, the second frees them.
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	v.reset()
	r := newResult(w)
	var p50, p95, rps, within, cpu []float64
	var n, beyond []int
	c := startCanary()
	for i := 0; i < segments; i++ {
		seg := g.segment(i, opt.segmentSpan(), opt.requests)
		r.count(seg.samples)
		lat := latenciesMS(seg.samples)
		inLimit := sort.SearchFloat64s(lat, math.Nextafter(w.limitMS, math.Inf(1)))
		q50, _ := percentile(lat, 0.50)
		q95, b95 := percentile(lat, 0.95)
		p50, p95 = append(p50, q50), append(p95, q95)
		n, beyond = append(n, len(lat)), append(beyond, b95)
		rps = append(rps, float64(len(lat))/seg.elapsed.Seconds())
		within = append(within, float64(inLimit)/math.Max(float64(len(seg.samples)), 1))
		cpu = append(cpu, float64(seg.cpu)/1e6/math.Max(float64(len(lat)), 1))
	}
	r.StallCount, r.StallMaxMS = c.end()
	r.verify(w, s, v)

	e := metricSet{}
	e.setBest("infer_p50_ms", "ms", p50, false)
	e.setBest("infer_p95_ms", "ms", p95, false)
	e.setBest("throughput_rps", "1/s", rps, true)
	e.setBest("within_limit_ratio", "ratio", within, true)
	e.setBest("cpu_ms_per_req", "ms", cpu, false)
	e.set("heap_live_mb", "MiB", float64(mem.HeapAlloc)/(1<<20))
	e.setMedian("setup_s", "s", setups)
	supported := true
	for _, b := range beyond {
		supported = supported && b >= minBeyond
	}
	q := e["infer_p50_ms"]
	q.Samples = n
	e["infer_p50_ms"] = q
	q = e["infer_p95_ms"]
	q.Samples, q.Beyond, q.Supported = n, beyond, &supported
	e["infer_p95_ms"] = q
	r.EndToEnd = e
	return r, nil
}

// snapshot is every public counter the layer metrics are deltas of.
type snapshot struct {
	at      time.Time
	engines [][]serving.ModelStats
	gw      gateway.Metrics
	par     parallel.Stats
	mem     runtime.MemStats
}

func takeSnapshot(s *stack) *snapshot {
	sn := &snapshot{at: time.Now(), engines: s.engineStats(), gw: s.gw.Metrics(), par: parallel.Snapshot()}
	runtime.ReadMemStats(&sn.mem)
	return sn
}

// bestP50 runs n segments and returns the lowest median latency among
// them, in ms, and every sample.
func (g *loadGen) bestP50(n int, span time.Duration, count int) (best float64, all []sample) {
	best = math.Inf(1)
	for i := 0; i < n; i++ {
		seg := g.segment(i, span, count).samples
		p50, _ := percentile(latenciesMS(seg), 0.50)
		best = math.Min(best, p50)
		all = append(all, seg...)
	}
	return best, all
}

// runTraced measures the per-layer metrics: an untraced window on a plain
// stack for the overhead ratio, then the same window on a stack with the
// span wrappers installed, then the direct-call layer rows.
func runTraced(w *workload, opt options, models []*nn.Model, v *verifier) (*workloadResult, error) {
	span := opt.segmentSpan()
	plain, err := boot(w, nil)
	if err != nil {
		return nil, err
	}
	g := &loadGen{s: plain, v: v, seed: opt.seed}
	g.segment(-1, opt.warmupSpan(), opt.requests)
	untraced, _ := g.bestP50(tracedSegments, span, opt.requests)
	plain.close()

	rec := newRecorder()
	s, err := boot(w, rec)
	if err != nil {
		return nil, err
	}
	defer s.close()
	g = &loadGen{s: s, v: v, seed: opt.seed}
	g.segment(-1, opt.warmupSpan(), opt.requests)

	v.reset()
	r := newResult(w)
	before := takeSnapshot(s)
	rec.on.Store(true)
	c := startCanary()
	traced, samples := g.bestP50(tracedSegments, span, opt.requests)
	r.StallCount, r.StallMaxMS = c.end()
	rec.on.Store(false)
	after := takeSnapshot(s)
	goroutines := runtime.NumGoroutine()
	r.count(samples)
	r.verify(w, s, v)

	m := metricSet{}
	lat := latenciesMS(samples)
	answers := math.Max(float64(len(lat)), 1)
	clientRows(m, r, samples, lat)
	m.set("host.stall_count", "count", float64(r.StallCount))
	m.set("host.stall_max_ms", "ms", r.StallMaxMS)
	m.set("trace.overhead_ratio", "ratio", traced/untraced)

	// Span self times, means over the window.
	spans := rec.snapshot()
	mean, self, roots := spanMeans(spans)
	reqs := math.Max(float64(roots), 1)
	stage := windowStats(before.engines, after.engines)
	stagesUS := (stage.queueWaitMS + stage.batchWaitMS + stage.execMS) * 1e3
	m.set("client.hop_us", "us", self[spanClient]/1e3)
	m.set("gateway.serve_us", "us", mean[spanGateway]/1e3)
	m.set("gateway.self_us", "us", self[spanGateway]/1e3)
	m.set("gateway.upstream_us", "us", mean[spanUpstream]/1e3)
	m.set("gateway.hop_us", "us", self[spanUpstream]/1e3)
	m.set("libei.serve_us", "us", mean[spanLibei]/1e3)
	m.set("libei.self_us", "us", self[spanLibei]/1e3)
	m.set("libei.url_bytes", "bytes", float64(rec.urlBytes.Load())/reqs)
	m.set("libei.resp_bytes", "bytes", float64(rec.respBytes.Load())/reqs)
	m.set("serving.infer_us", "us", mean[spanServing]/1e3)
	m.set("serving.self_us", "us", self[spanServing]/1e3-stagesUS)
	m.set("serving.queue_wait_ms", "ms", stage.queueWaitMS)
	m.set("serving.batch_wait_ms", "ms", stage.batchWaitMS)
	m.set("serving.exec_ms", "ms", stage.execMS)
	m.set("serving.avg_batch", "count", stage.avgBatch)
	m.set("serving.largest_batch", "count", float64(stage.largest))
	m.set("serving.batches", "count", float64(stage.batches))
	m.set("serving.rejected", "count", float64(stage.rejected))
	m.set("serving.expired", "count", float64(stage.expired))
	m.set("serving.errors", "count", float64(stage.errors))
	gatewayRows(m, before.gw, after.gw)

	wall := after.at.Sub(before.at)
	par0, par1 := before.par, after.par
	m.set("parallel.utilization", "ratio", (par1.BusyMS-par0.BusyMS)/(float64(wall)/1e6*float64(max(par1.Workers, 1))))
	jobs := float64(par1.ParallelJobs - par0.ParallelJobs)
	m.set("parallel.parallel_jobs", "count", jobs)
	m.set("parallel.serial_jobs", "count", float64(par1.SerialJobs-par0.SerialJobs))
	m.set("parallel.chunks_per_job", "count", float64(par1.Chunks-par0.Chunks)/math.Max(jobs, 1))
	m.set("runtime.allocs_per_req", "count", float64(after.mem.Mallocs-before.mem.Mallocs)/answers)
	m.set("runtime.alloc_bytes_per_req", "bytes", float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/answers)
	m.set("runtime.gc_cycles", "count", float64(after.mem.NumGC-before.mem.NumGC))
	m.set("runtime.gc_pause_ms", "ms", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6)
	m.set("runtime.goroutines", "count", float64(goroutines))

	// The budget: rows that telescope to the mean end-to-end latency.
	r.MeanLatencyUS = mean[spanClient] / 1e3
	for _, name := range budgetRows {
		us := m[name].Value
		if m[name].Unit == "ms" {
			us *= 1e3
		}
		r.Budget = append(r.Budget, budgetRow{Row: name, US: us, Share: us / r.MeanLatencyUS})
	}

	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return nil, err
	}
	r.SpanDump = filepath.Join(opt.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, opt.seed))
	if err := dumpSpans(r.SpanDump, spans); err != nil {
		return nil, err
	}

	// The stack is idle from here on, so the direct calls have the host.
	batch := max(int(math.Round(stage.avgBatch)), 1)
	rows, err := layerRows(w, models, v.pools, batch, timer{budget: 120 * time.Millisecond, count: opt.requests})
	if err != nil {
		return nil, err
	}
	for name, val := range rows {
		m.set(name, directRowUnits[name], val)
	}
	r.PerLayer = m
	return r, nil
}

// clientRows fills the load generator's own rows from the traced window.
func clientRows(m metricSet, r *workloadResult, samples []sample, lat []float64) {
	m.set("client.sent", "count", float64(r.Attempted))
	m.set("client.ok", "count", float64(r.Succeeded))
	m.set("client.failed", "count", float64(r.Failed))
	m.set("client.wrong_class", "count", float64(r.WrongClass))
	p99, _ := percentile(lat, 0.99)
	m.set("client.p99_ms", "ms", p99)
	m.set("client.max_ms", "ms", summarize(lat).max)
	var encodeUS float64
	late := make([]float64, len(samples))
	for i, s := range samples {
		encodeUS += float64(s.encode) / 1e3
		late[i] = float64(s.late) / 1e6
	}
	sort.Float64s(late)
	m.set("client.encode_us", "us", encodeUS/math.Max(float64(len(samples)), 1))
	late95, _ := percentile(late, 0.95)
	m.set("client.late_p95_ms", "ms", late95)
}

// gatewayRows fills the rows read from Gateway.Metrics() deltas.
func gatewayRows(m metricSet, before, after gateway.Metrics) {
	routed := float64(after.Routed - before.Routed)
	prev := map[string]gateway.NodeMetrics{}
	for _, n := range before.Nodes {
		prev[n.URL] = n
	}
	var attempts, answered, most float64
	for _, n := range after.Nodes {
		p := prev[n.URL]
		got := float64(n.Routed - p.Routed)
		attempts += got + float64(n.Fails-p.Fails)
		answered += got
		most = math.Max(most, got)
	}
	m.set("gateway.attempts_per_req", "count", attempts/math.Max(routed, 1))
	m.set("gateway.retried", "count", float64(after.Retried-before.Retried))
	m.set("gateway.hedged", "count", float64(after.Hedged-before.Hedged))
	m.set("gateway.shed", "count", float64(after.Shed-before.Shed))
	m.set("gateway.failed", "count", float64(after.Failed-before.Failed))
	m.set("gateway.node_share_max", "ratio", most/math.Max(answered, 1))
}

// budgetTable renders the traced run's budget as markdown.
func budgetTable(r *workloadResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\n### %s — latency budget (means over the traced window)\n\n", r.Name)
	b.WriteString("| row | µs | share |\n|---|---:|---:|\n")
	var sum float64
	for _, row := range r.Budget {
		fmt.Fprintf(&b, "| %s | %.1f | %.1f %% |\n", row.Row, row.US, 100*row.Share)
		sum += row.US
	}
	fmt.Fprintf(&b, "| **sum of rows** | %.1f | %.1f %% |\n", sum, 100*sum/r.MeanLatencyUS)
	fmt.Fprintf(&b, "| **mean end-to-end latency** | %.1f | |\n", r.MeanLatencyUS)
	return b.String()
}
