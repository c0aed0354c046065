package serving

import (
	"context"
	"math"
	"testing"
	"time"

	"openei/internal/obs"
)

// TestPipelineStageSpans drives one traced request through the engine and
// asserts the pipeline decomposes it into queue-wait, batch-wait, and
// exec spans under the caller's root — and that the three partition
// enqueue→done: each stage starts where the previous one ended, inside the
// caller's own span.
func TestPipelineStageSpans(t *testing.T) {
	const classes = 8
	_, e := newTestEngine(t, identModel(classes), Config{Replicas: 1, MaxBatch: 4})
	tr := obs.NewTracer(obs.Config{SampleRate: 1, Source: "test-node"})

	tb := tr.Begin(obs.TraceContext{})
	id := tb.ID()
	root := tr.NextID()
	tb.SetRoot(root)
	ctx := obs.NewContext(context.Background(), tb)
	start := time.Now()
	if _, err := e.Infer(ctx, "ident", oneHot(classes, 3)); err != nil {
		t.Fatal(err)
	}
	total := time.Since(start)
	tb.AddWithID(root, obs.StageInfer, 0, start, total)
	tr.Finish(tb, false, total)

	spans, ok := tr.Trace(id)
	if !ok {
		t.Fatal("sampled trace not stored")
	}
	byStage := map[string]obs.WireSpan{}
	for _, sp := range spans {
		byStage[sp.Stage] = sp
	}
	chain := []string{obs.StageQueueWait, obs.StageBatchWait, obs.StageExec}
	for _, stage := range chain {
		sp, ok := byStage[stage]
		if !ok {
			t.Fatalf("missing %s span; got %+v", stage, spans)
		}
		if sp.ParentID != obs.IDString(root) {
			t.Fatalf("%s span parented to %s, want root %s", stage, sp.ParentID, obs.IDString(root))
		}
	}
	// Span bounds in the float milliseconds spans carry; the tolerance is
	// their rounding. The pipeline places each stage at an offset from
	// enqueue, so the chain abuts exactly. Against the caller's span only
	// quantities of one clock are compared — wall starts, monotonic
	// durations — because two time.Now() calls need not agree on the
	// distance between the clocks.
	begin := func(stage string) float64 { return float64(byStage[stage].StartUnixNS) / 1e6 }
	end := func(stage string) float64 { return begin(stage) + byStage[stage].DurationMS }
	const tolMS = 0.001
	if early := begin(obs.StageInfer) - begin(chain[0]); early > tolMS {
		t.Fatalf("%s starts %.4fms before the caller's span", chain[0], early)
	}
	var sum float64
	for i, stage := range chain {
		sum += byStage[stage].DurationMS
		if i == 0 {
			continue
		}
		if gap := begin(stage) - end(chain[i-1]); gap < -tolMS || gap > tolMS {
			t.Fatalf("%s starts %.4fms off the end of %s; the stages must partition enqueue→done", stage, gap, chain[i-1])
		}
	}
	if over := sum - byStage[obs.StageInfer].DurationMS; over > tolMS {
		t.Fatalf("stages sum to %.4fms more than the caller's span", over)
	}
	// Exec attrs identify the model and batch.
	if attrs := byStage[obs.StageExec].Attrs; attrs["model"] != "ident" || attrs["batch"] != int64(1) {
		t.Fatalf("exec attrs = %v", attrs)
	}
}

// TestStageHistogramsInStats asserts the permanent per-model and
// per-tenant stage histograms appear in the JSON stats and the raw
// histogram exports once requests complete.
func TestStageHistogramsInStats(t *testing.T) {
	const classes = 8
	_, e := newTestEngine(t, identModel(classes), Config{Replicas: 1, MaxBatch: 4})
	for i := 0; i < 5; i++ {
		if _, err := e.Infer(context.Background(), "ident", oneHot(classes, i%classes)); err != nil {
			t.Fatal(err)
		}
	}
	var ms *ModelStats
	for _, s := range e.Stats() {
		if s.Model == "ident" {
			ms = &s
			break
		}
	}
	if ms == nil {
		t.Fatal("no stats for ident")
	}
	for name, sl := range map[string]*StageLatency{
		"queue_wait": ms.QueueWait, "batch_wait": ms.BatchWait, "exec": ms.Exec,
	} {
		if sl == nil {
			t.Fatalf("model stats missing %s stage latency", name)
		}
		if math.IsNaN(sl.P95MS) || sl.P95MS < 0 {
			t.Fatalf("%s p95 = %v", name, sl.P95MS)
		}
	}
	if ms.Exec.AvgMS <= 0 {
		t.Fatalf("exec avg = %v, want > 0", ms.Exec.AvgMS)
	}
	var ts *TenantStats
	for _, s := range e.TenantStats() {
		if s.Served > 0 {
			ts = &s
			break
		}
	}
	if ts == nil || ts.Exec == nil || ts.QueueWait == nil || ts.BatchWait == nil {
		t.Fatalf("tenant stage latencies missing: %+v", ts)
	}
	// Raw exports: per-model latency + 3 stages, per-tenant the same.
	names := map[string]int{}
	for _, ex := range e.HistogramExports() {
		names[ex.Name]++
	}
	for _, want := range []string{
		"serving_latency_ms", "serving_queue_wait_ms", "serving_batch_wait_ms", "serving_exec_ms",
		"tenant_latency_ms", "tenant_queue_wait_ms", "tenant_batch_wait_ms", "tenant_exec_ms",
	} {
		if names[want] == 0 {
			t.Fatalf("histogram exports missing %s; got %v", want, names)
		}
	}
}

// TestUntracedRequestUnaffected pins the no-tracer path: a context with
// no trace buffer serves normally and records no spans anywhere.
func TestUntracedRequestUnaffected(t *testing.T) {
	const classes = 4
	_, e := newTestEngine(t, identModel(classes), Config{Replicas: 1})
	res, err := e.Infer(context.Background(), "ident", oneHot(classes, 2))
	if err != nil || res.Class != 2 {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}
