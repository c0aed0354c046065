package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"openei/internal/serving"
)

func TestPercentileAndBeyond(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..200, ascending
	}
	for _, c := range []struct {
		q          float64
		want       float64
		wantBeyond int
	}{
		{0.50, 100, 100},
		{0.95, 190, 10},
		{0.99, 198, 2},
		{1.00, 200, 0},
	} {
		got, beyond := percentile(xs, c.q)
		if got != c.want || beyond != c.wantBeyond {
			t.Errorf("percentile(q=%v) = %v with %d beyond, want %v with %d", c.q, got, beyond, c.want, c.wantBeyond)
		}
	}
	// The rule: p95 of 200 samples is supported (10 beyond), p99 is not.
	if _, b := percentile(xs, 0.95); b < minBeyond {
		t.Errorf("p95 of 200 samples has %d beyond, want >= %d", b, minBeyond)
	}
	if _, b := percentile(xs, 0.99); b >= minBeyond {
		t.Errorf("p99 of 200 samples has %d beyond, want < %d", b, minBeyond)
	}
	if v, b := percentile(nil, 0.5); v != 0 || b != 0 {
		t.Errorf("percentile of nothing = %v, %d", v, b)
	}
}

func TestSegmentSummaryAndBestSegment(t *testing.T) {
	segs := []float64{3.1, 9.4, 9.7, 3.2, 8.8} // three segments inside a noisy epoch
	s := summarize(segs)
	if s.median != 8.8 || s.min != 3.1 || s.max != 9.7 {
		t.Errorf("summarize = %+v, want median 8.8 min 3.1 max 9.7", s)
	}
	m := metricSet{}
	m.setBest("latency", "ms", segs, false)
	m.setBest("rate", "1/s", segs, true)
	m.setMedian("setup", "s", segs)
	if m["latency"].Value != 3.1 || m["rate"].Value != 9.7 || m["setup"].Value != 8.8 || m["latency"].Median != 8.8 {
		t.Errorf("best/median = %v %v %v", m["latency"], m["rate"], m["setup"])
	}
	if got := summarize([]float64{4, 1, 3, 2}).median; got != 2.5 {
		t.Errorf("even-length median = %v, want 2.5", got)
	}
}

func TestQuartileSpreadMatchesPythonExclusiveQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(ten), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if got, want := quartileSpread([]float64{1, 2, 4, 8, 16}), (12.0-1.5)/4.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of five = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func TestGenerationIsSeeded(t *testing.T) {
	w, err := workloadByName("mixed_open")
	if err != nil {
		t.Fatal(err)
	}
	a := schedule(7, 2, w, time.Second, 0)
	b := schedule(7, 2, w, time.Second, 0)
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("equal seeds gave different schedules (%d vs %d arrivals)", len(a), len(b))
	}
	if reflect.DeepEqual(a, schedule(8, 2, w, time.Second, 0)) {
		t.Error("different seeds gave the same schedule")
	}
	if reflect.DeepEqual(a, schedule(7, 3, w, time.Second, 0)) {
		t.Error("different segments gave the same schedule")
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i].due < a[j].due }) || a[len(a)-1].due >= time.Second {
		t.Error("arrivals are not ascending within the segment's span")
	}
	if got := len(schedule(7, 2, w, 0, 25)); got != 25 {
		t.Errorf("count-driven schedule has %d arrivals, want 25", got)
	}
	models, tenants := map[int]bool{}, map[int]bool{}
	for _, arr := range schedule(7, 0, w, 0, 400) {
		models[arr.model], tenants[arr.tenant] = true, true
	}
	if len(models) != len(w.models) || len(tenants) != len(w.tenants) {
		t.Errorf("400 arrivals drew %d of %d models and %d of %d tenants", len(models), len(w.models), len(tenants), len(w.tenants))
	}

	tiny, err := workloadByName("tiny_closed")
	if err != nil {
		t.Fatal(err)
	}
	built, err := buildModels(tiny)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := buildPool(7, built[0])
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := buildPool(7, built[0])
	p3, _ := buildPool(8, built[0])
	if len(p1.inputs) != poolSize || len(p1.inputs[0]) != tiny.size*tiny.size {
		t.Fatalf("pool is %d × %d", len(p1.inputs), len(p1.inputs[0]))
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Error("equal seeds gave different pools")
	}
	if reflect.DeepEqual(p1.inputs, p3.inputs) {
		t.Error("different seeds gave the same pool")
	}
	// The weights do not move with the seed.
	again, _ := buildModels(tiny)
	if !reflect.DeepEqual(built[0].Params()[0].Data(), again[0].Params()[0].Data()) {
		t.Error("model weights differ between builds")
	}
}

func TestWindowStatsRecoversWindowMeans(t *testing.T) {
	stage := func(avg float64) *serving.StageLatency { return &serving.StageLatency{AvgMS: avg} }
	// Node 0: 100 requests at 1/2/3 ms before the window, 300 more at
	// 2/4/6 ms inside it. Node 1 serves its first 100 inside the window.
	before := [][]serving.ModelStats{{
		{Model: "mlp", Completed: 100, Batches: 50, AvgBatch: 2, QueueWait: stage(1), BatchWait: stage(2), Exec: stage(3), LargestBatch: 2},
	}, nil}
	after := [][]serving.ModelStats{{
		{Model: "mlp", Completed: 400, Batches: 150, AvgBatch: (100 + 300) / 150.0, LargestBatch: 4, RejectedOverload: 3,
			QueueWait: stage((100*1 + 300*2) / 400.0), BatchWait: stage((100*2 + 300*4) / 400.0), Exec: stage((100*3 + 300*6) / 400.0)},
	}, {
		{Model: "lenet", Completed: 100, Batches: 100, AvgBatch: 1, LargestBatch: 1, QueueWait: stage(6), BatchWait: stage(4), Exec: stage(10)},
	}}
	w := windowStats(before, after)
	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if w.completed != 400 || w.batches != 200 || w.largest != 4 || w.rejected != 3 {
		t.Errorf("window = %+v", w)
	}
	near("queue wait", w.queueWaitMS, (300*2+100*6)/400.0)
	near("batch wait", w.batchWaitMS, (300*4+100*4)/400.0)
	near("exec", w.execMS, (300*6+100*10)/400.0)
	near("avg batch", w.avgBatch, 400/200.0)
}

func TestSelfTimesTelescopeToTheRoot(t *testing.T) {
	rec := &recorder{epoch: time.Unix(0, 0)}
	at := func(ns int64) time.Time { return rec.epoch.Add(time.Duration(ns)) }
	// Two requests, each a chain of five nested spans with different gaps.
	for id, pad := range []int64{10, 35} {
		start, end := int64(1000*id), int64(1000*id)+900+pad
		for _, name := range []string{spanClient, spanGateway, spanUpstream, spanLibei, spanServing} {
			rec.add(name, uint64(id+1), at(start), at(end))
			start, end = start+pad, end-2*pad
		}
	}
	mean, self, roots := spanMeans(rec.snapshot())
	if roots != 2 {
		t.Fatalf("roots = %d, want 2", roots)
	}
	var sum float64
	for _, v := range self {
		sum += v
	}
	if root := mean[spanClient]; math.Abs(sum-root) > 1e-9 {
		t.Errorf("self times sum to %v, want the mean root duration %v", sum, root)
	}
	// Each wrapper's self time is the mean of 3·pad; the innermost keeps
	// all of its own duration.
	if want := 3 * (10 + 35) / 2.0; math.Abs(self[spanGateway]-want) > 1e-9 {
		t.Errorf("gateway self = %v, want %v", self[spanGateway], want)
	}
	if want := mean[spanServing]; self[spanServing] != want {
		t.Errorf("innermost self = %v, want its duration %v", self[spanServing], want)
	}
}

func TestBenchIDIsTheLastQueryArgument(t *testing.T) {
	if got := benchID("input=1,2&model=mlp&bench_id=42"); got != 42 {
		t.Errorf("benchID = %d, want 42", got)
	}
	if got := benchID("input=1,2&model=mlp"); got != 0 {
		t.Errorf("benchID without the argument = %d, want 0", got)
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "tiny_closed", "--trace", "1", "--seed", "0"})
	want := []string{"--workload", "tiny_closed", "-trace=1", "--seed", "0"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("normalizeArgs = %q, want %q", got, want)
	}
	if got := normalizeArgs([]string{"-trace", "-seed", "1"}); !reflect.DeepEqual(got, []string{"-trace", "-seed", "1"}) {
		t.Errorf("bare -trace was rewritten: %q", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "infer_p50_ms", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "throughput_rps", Better: "higher", Bound: 0.10}
	// One run per side: the reported value is the best segment, the
	// samples are the segments.
	run := func(best func([]float64) float64, segs ...float64) *evidence {
		return &evidence{values: []float64{best(segs)}, samples: segs}
	}
	lo := func(xs []float64) float64 { return summarize(xs).min }
	hi := func(xs []float64) float64 { return summarize(xs).max }
	for _, c := range []struct {
		name     string
		m        specMetric
		old, new *evidence
		want     string
	}{
		{"within the bound", lower, run(lo, 3.0, 3.1, 3.05, 3.1, 3.0), run(lo, 3.2, 3.1, 3.15, 3.2, 3.1), "same"},
		{"slower by a fifth", lower, run(lo, 3.0, 3.1, 3.05, 3.1, 3.0), run(lo, 3.7, 3.6, 3.65, 3.7, 3.6), "worse"},
		{"faster by a fifth", lower, run(lo, 3.7, 3.6, 3.65, 3.7, 3.6), run(lo, 3.0, 3.1, 3.05, 3.1, 3.0), "better"},
		{"fewer answers per second", higher, run(hi, 650, 640, 655, 650, 645), run(hi, 500, 510, 505, 500, 495), "worse"},
		{"spread wider than the bound, overlapping", lower, run(lo, 3.0, 4.5, 3.2, 5.0, 2.8), run(lo, 3.6, 4.9, 3.1, 5.5, 3.3), "unresolved"},
		{"spread wider than the bound, yet every segment worse", lower, run(lo, 3.0, 4.5, 3.2, 5.0, 2.8), run(lo, 6.0, 8.0, 6.5, 9.0, 7.0), "worse"},
		{"several runs a side", lower,
			&evidence{values: []float64{3.0, 3.1, 3.05}, samples: []float64{3.0, 3.1, 3.05}},
			&evidence{values: []float64{3.6, 3.7, 3.65}, samples: []float64{3.6, 3.7, 3.65}}, "worse"},
	} {
		if got, _ := verdict(c.old, c.new, c.m); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestSmokeDocumentMatchesBenchmarkJSON runs tiny_closed count-driven (no
// timer), untraced and traced, and checks the documents' schema and that
// the names and units they print are exactly BENCHMARK.json's.
func TestSmokeDocumentMatchesBenchmarkJSON(t *testing.T) {
	specPath := filepath.Join("..", "..", "BENCHMARK.json")
	spec, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, eibench runs %v", names, ours)
	}

	dir := t.TempDir()
	for _, c := range []struct {
		trace bool
		spec  []specMetric
	}{
		{false, spec.EndToEnd},
		{true, spec.PerLayer},
	} {
		doc, err := run("tiny_closed", options{seed: 1, seconds: 1, requests: 40, trace: c.trace, outDir: dir})
		if err != nil {
			t.Fatalf("trace=%v: %v", c.trace, err)
		}
		var out, diag bytes.Buffer
		if err := emit(doc, &out, &diag); err != nil {
			t.Fatal(err)
		}
		w := doc.Workloads[0]
		if doc.Schema != schema || len(doc.Workloads) != 1 || w.Name != "tiny_closed" {
			t.Fatalf("trace=%v: document %s with %d workloads", c.trace, doc.Schema, len(doc.Workloads))
		}
		if !w.Correct || w.Failed != 0 || w.WrongClass != 0 || w.Attempted != w.Succeeded {
			t.Errorf("trace=%v: correct=%v attempted=%d succeeded=%d failed=%d wrong=%d problems=%v",
				c.trace, w.Correct, w.Attempted, w.Succeeded, w.Failed, w.WrongClass, w.Problems)
		}
		wantAttempted := 40 * segments
		if c.trace {
			wantAttempted = 40 * tracedSegments
		}
		if w.Attempted != wantAttempted {
			t.Errorf("trace=%v: attempted %d, want %d", c.trace, w.Attempted, wantAttempted)
		}

		// The contract line is last, and carries exactly the spec's metrics.
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		var last result
		if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
			t.Fatalf("trace=%v: last line: %v", c.trace, err)
		}
		if !last.Correct || last.Attempted != w.Attempted || last.Failed != 0 {
			t.Errorf("trace=%v: contract line %+v", c.trace, last)
		}
		got := w.EndToEnd
		if c.trace {
			got = w.PerLayer
		}
		for _, m := range c.spec {
			v, ok := got[m.Name]
			if !ok {
				t.Errorf("trace=%v: %s is in BENCHMARK.json but not printed", c.trace, m.Name)
				continue
			}
			if v.Unit != m.Unit {
				t.Errorf("%s: unit %q printed, BENCHMARK.json says %q", m.Name, v.Unit, m.Unit)
			}
			if last.Metrics[m.Name] != (contractMetric{Value: v.Value, Unit: v.Unit}) {
				t.Errorf("%s: contract line has %+v, document %v %s", m.Name, last.Metrics[m.Name], v.Value, v.Unit)
			}
		}
		if len(got) != len(c.spec) || len(last.Metrics) != len(c.spec) {
			t.Errorf("trace=%v: %d metrics printed (%d on the contract line), BENCHMARK.json names %d", c.trace, len(got), len(last.Metrics), len(c.spec))
		}

		if !c.trace {
			if p50 := got["infer_p50_ms"]; len(p50.Segments) != segments || len(p50.Samples) != segments || p50.Value != p50.Min || p50.Min > p50.Median || p50.Median > p50.Max {
				t.Errorf("infer_p50_ms = %+v", p50)
			}
			if s := got["infer_p95_ms"].Supported; s == nil || *s {
				t.Error("p95 of 40 samples must be flagged unsupported")
			}
			if n := len(got["setup_s"].Segments); n != setupBoots {
				t.Errorf("setup_s has %d boots, want %d", n, setupBoots)
			}
			// -check reads captured stdout; a run does not regress on itself.
			path := filepath.Join(dir, "self.json")
			if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			if regressed, err := check(specPath, path, path, &diag); err != nil || regressed {
				t.Errorf("-check of a run against itself: regressed=%v err=%v\n%s", regressed, err, diag.String())
			}
			continue
		}
		// Traced: the budget telescopes and the span dump exists.
		var sum float64
		for _, row := range w.Budget {
			sum += row.US
		}
		if w.MeanLatencyUS <= 0 || math.Abs(sum-w.MeanLatencyUS) > 0.02*w.MeanLatencyUS {
			t.Errorf("budget rows sum to %.1f us, mean latency %.1f us", sum, w.MeanLatencyUS)
		}
		if !bytes.Contains(diag.Bytes(), []byte("| serving.batch_wait_ms |")) {
			t.Errorf("no budget table on the diagnostic stream:\n%s", diag.String())
		}
		if fi, err := os.Stat(w.SpanDump); err != nil || fi.Size() == 0 {
			t.Errorf("span dump %s: %v", w.SpanDump, err)
		}
		if got["client.sent"].Value != float64(w.Attempted) || got["serving.batches"].Value == 0 {
			t.Errorf("client.sent = %v, serving.batches = %v", got["client.sent"].Value, got["serving.batches"].Value)
		}

	}
}

func TestCheckAppliesBounds(t *testing.T) {
	spec := filepath.Join("..", "..", "BENCHMARK.json")
	dir := t.TempDir()
	write := func(name string, p50 float64, failed int) string {
		e := metricSet{}
		for _, m := range []string{"infer_p95_ms", "throughput_rps", "within_limit_ratio", "cpu_ms_per_req", "heap_live_mb", "setup_s"} {
			e.set(m, "", 1)
		}
		e.setBest("infer_p50_ms", "ms", []float64{p50, p50 * 1.01, p50 * 0.99, p50, p50}, false)
		doc := document{Schema: schema, Workloads: []*workloadResult{{Name: "tiny_closed", Attempted: 1000, Failed: failed, EndToEnd: e}}}
		raw, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		// As captured from stdout: the contract line follows the document.
		raw = append(raw, []byte("\n{\"correct\":true,\"attempted\":1000,\"failed\":0,\"metrics\":{}}\n")...)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 3.0, 0)
	for _, c := range []struct {
		name      string
		path      string
		regressed bool
		says      string
	}{
		{"itself", base, false, "same"},
		{"5 % slower", write("near.json", 3.15, 0), false, "same"},
		{"50 % slower", write("slow.json", 4.5, 0), true, "worse"},
		{"40 % faster", write("fast.json", 1.8, 0), false, "better"},
		{"more failures", write("fail.json", 3.0, 2), true, "worse"},
	} {
		var out bytes.Buffer
		regressed, err := check(spec, base, c.path, &out)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if regressed != c.regressed || !bytes.Contains(out.Bytes(), []byte(c.says)) {
			t.Errorf("%s: regressed=%v, want %v with a %q verdict:\n%s", c.name, regressed, c.regressed, c.says, out.String())
		}
	}
}
