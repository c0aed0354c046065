package obs

import (
	"strings"
	"testing"
	"time"
	"unsafe"
)

func TestTraceContextRoundTrip(t *testing.T) {
	tc := TraceContext{TraceID: 0xdeadbeefcafef00d, Parent: 0x1234, Sampled: true}
	s := tc.String()
	got, ok := ParseTraceContext(s)
	if !ok || got != tc {
		t.Fatalf("round trip %q: got %+v ok=%v, want %+v", s, got, ok, tc)
	}
	if len(s) != 35 || strings.Count(s, "-") != 2 {
		t.Fatalf("wire form %q malformed", s)
	}
	for _, bad := range []string{"", "xyz", "12-34", "0-0-1", "12-34-2-9"} {
		if _, ok := ParseTraceContext(bad); ok {
			t.Fatalf("ParseTraceContext(%q) accepted", bad)
		}
	}
}

func TestIDStringParse(t *testing.T) {
	tr := NewTracer(Config{})
	id := tr.NextID()
	back, ok := ParseID(IDString(id))
	if !ok || back != id {
		t.Fatalf("ParseID(IDString(%x)) = %x, %v", id, back, ok)
	}
	if _, ok := ParseID("0"); ok {
		t.Fatal("ParseID accepted zero ID")
	}
}

func TestSamplingAlwaysAndNever(t *testing.T) {
	always := NewTracer(Config{SampleRate: 1})
	for i := 0; i < 50; i++ {
		b := always.Begin(TraceContext{})
		b.Add(StageExec, 0, time.Now(), time.Millisecond)
		always.Finish(b, false, time.Millisecond)
	}
	if st := always.Stats(); st.Kept != 50 || st.Dropped != 0 {
		t.Fatalf("rate 1: kept %d dropped %d, want 50/0", st.Kept, st.Dropped)
	}
	never := NewTracer(Config{SampleRate: 0})
	for i := 0; i < 50; i++ {
		b := never.Begin(TraceContext{})
		b.Add(StageExec, 0, time.Now(), time.Millisecond)
		never.Finish(b, false, time.Millisecond)
	}
	if st := never.Stats(); st.Kept != 0 || st.Dropped != 50 {
		t.Fatalf("rate 0: kept %d dropped %d, want 0/50", st.Kept, st.Dropped)
	}
}

func TestErrorAlwaysKept(t *testing.T) {
	tr := NewTracer(Config{SampleRate: 0})
	b := tr.Begin(TraceContext{})
	id := b.ID()
	b.Add(StageInfer, 0, time.Now(), time.Millisecond)
	tr.Finish(b, true, time.Millisecond)
	spans, ok := tr.Trace(id)
	if !ok || len(spans) != 1 {
		t.Fatalf("errored trace not kept: ok=%v spans=%d", ok, len(spans))
	}
}

// TestKeptAttrDoesNotAliasSource: attr strings are usually substrings of
// the HTTP request line, so a kept trace must own copies of them — or
// every ring slot pins a whole URL (tens of kB on big-input models).
func TestKeptAttrDoesNotAliasSource(t *testing.T) {
	tr := NewTracer(Config{SampleRate: 1})
	line := "/ei_algorithms/serving/infer?model=lenet&input=" + strings.Repeat("0.5,", 1024)
	model := line[strings.Index(line, "lenet"):][:5]
	b := tr.Begin(TraceContext{})
	id := b.ID()
	b.Add(StageInfer, 0, time.Now(), time.Millisecond, Str("model", model), Int("status", 200))
	tr.Finish(b, false, time.Millisecond)
	tr.mu.Lock()
	kept := tr.ring[tr.index[id]].attrs
	tr.mu.Unlock()
	if len(kept) != 2 || kept[0].Str != "lenet" || kept[1].Int != 200 {
		t.Fatalf("kept attrs = %+v", kept)
	}
	if unsafe.StringData(kept[0].Str) == unsafe.StringData(model) {
		t.Fatal("kept span's attr aliases the request line it was cut from")
	}
}

func TestPropagatedVerdictAdopted(t *testing.T) {
	tr := NewTracer(Config{SampleRate: 0})
	b := tr.Begin(TraceContext{TraceID: 42, Parent: 7, Sampled: true})
	if b.ID() != 42 || !b.Sampled() || b.Parent() != 7 {
		t.Fatalf("propagated context not adopted: id=%d sampled=%v parent=%d", b.ID(), b.Sampled(), b.Parent())
	}
	b.Add(StageInfer, b.Parent(), time.Now(), time.Millisecond)
	tr.Finish(b, false, time.Millisecond)
	if _, ok := tr.Trace(42); !ok {
		t.Fatal("upstream-sampled trace was dropped")
	}
}

func TestTailKeepActivates(t *testing.T) {
	tr := NewTracer(Config{SampleRate: 0})
	// Feed enough uniform fast finishes to compute a tail threshold.
	for i := 0; i < tailMinCount+tailRefresh; i++ {
		b := tr.Begin(TraceContext{})
		tr.Finish(b, false, time.Millisecond)
	}
	if thr := tr.Stats().TailThresholdMS; thr <= 0 {
		t.Fatalf("tail threshold not computed: %v", thr)
	}
	// A request far beyond the threshold is kept even unsampled.
	b := tr.Begin(TraceContext{})
	id := b.ID()
	b.Add(StageInfer, 0, time.Now(), time.Second)
	tr.Finish(b, false, time.Second)
	if _, ok := tr.Trace(id); !ok {
		t.Fatal("tail outlier was not kept")
	}
}

func TestRingEviction(t *testing.T) {
	tr := NewTracer(Config{SampleRate: 1, Ring: 4})
	ids := make([]uint64, 8)
	for i := range ids {
		b := tr.Begin(TraceContext{})
		ids[i] = b.ID()
		b.Add(StageInfer, 0, time.Now(), time.Millisecond)
		tr.Finish(b, false, time.Millisecond)
	}
	for _, id := range ids[:4] {
		if _, ok := tr.Trace(id); ok {
			t.Fatalf("evicted trace %x still stored", id)
		}
	}
	for _, id := range ids[4:] {
		if _, ok := tr.Trace(id); !ok {
			t.Fatalf("recent trace %x missing", id)
		}
	}
	recent := tr.RecentIDs(10)
	if len(recent) != 4 || recent[0] != IDString(ids[7]) {
		t.Fatalf("RecentIDs = %v, want newest-first 4 ending with %s", recent, IDString(ids[7]))
	}
}

func TestSpanOverflowCounted(t *testing.T) {
	tr := NewTracer(Config{SampleRate: 1})
	b := tr.Begin(TraceContext{})
	for i := 0; i < maxSpans+5; i++ {
		b.Add(StageExec, 0, time.Now(), time.Millisecond)
	}
	tr.Finish(b, false, time.Millisecond)
	if st := tr.Stats(); st.SpanOverflow != 5 {
		t.Fatalf("span overflow = %d, want 5", st.SpanOverflow)
	}
	spans, _ := tr.Trace(b.ID())
	if len(spans) != maxSpans {
		t.Fatalf("stored %d spans, want %d", len(spans), maxSpans)
	}
}

func TestWireSpanAttrs(t *testing.T) {
	tr := NewTracer(Config{SampleRate: 1, Source: "edge-1"})
	b := tr.Begin(TraceContext{})
	b.Add(StageExec, 0, time.Now(), 2*time.Millisecond,
		Str("model", "m"), Int("batch", 3))
	tr.Finish(b, false, 2*time.Millisecond)
	spans, _ := tr.Trace(b.ID())
	if len(spans) != 1 {
		t.Fatalf("spans = %d", len(spans))
	}
	sp := spans[0]
	if sp.Source != "edge-1" || sp.Stage != StageExec {
		t.Fatalf("span = %+v", sp)
	}
	if sp.Attrs["model"] != "m" || sp.Attrs["batch"] != int64(3) {
		t.Fatalf("attrs = %v", sp.Attrs)
	}
}

func TestLateRecorderCommits(t *testing.T) {
	// A Ref holder (hedge loser, pipeline worker) appending after Finish
	// must still land its span in the stored trace.
	tr := NewTracer(Config{SampleRate: 1})
	b := tr.Begin(TraceContext{})
	b.Ref()
	tr.Finish(b, false, time.Millisecond) // beginner done; buffer alive via Ref
	if _, ok := tr.Trace(b.ID()); ok {
		t.Fatal("trace committed before last reference dropped")
	}
	b.Add(StageAttempt, 0, time.Now(), time.Millisecond)
	id := b.ID()
	b.Unref()
	spans, ok := tr.Trace(id)
	if !ok || len(spans) != 1 {
		t.Fatalf("late span lost: ok=%v spans=%d", ok, len(spans))
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	b := tr.Begin(TraceContext{})
	if b != nil {
		t.Fatal("nil tracer returned non-nil buffer")
	}
	// All no-ops; must not panic.
	b.Add(StageExec, 0, time.Now(), time.Millisecond)
	b.SetRoot(1)
	b.Ref()
	b.Unref()
	b.MarkErr()
	tr.Finish(b, true, time.Millisecond)
	if _, ok := tr.Trace(1); ok {
		t.Fatal("nil tracer stored a trace")
	}
	if tr.Stats() != (Stats{}) {
		t.Fatal("nil tracer stats non-zero")
	}
}

// TestUnsampledZeroAlloc is the overhead guard: a request that ends
// unsampled must not touch the heap — the tracer recycles its buffer
// through the free list, the variadic attrs stay on the stack, and the
// periodic tail-threshold recompute works on a stack copy. The tracer is
// warmed past tailMinCount and every measured run finishes exactly
// tailRefresh traces, so each run contains one recompute; a recompute
// that allocated would read at least 1 alloc/run, which AllocsPerRun's
// floored average cannot hide.
func TestUnsampledZeroAlloc(t *testing.T) {
	tr := NewTracer(Config{SampleRate: 0})
	for i := 0; i < tailMinCount; i++ {
		tr.Finish(tr.Begin(TraceContext{}), false, time.Millisecond)
	}
	if tr.Stats().TailThresholdMS <= 0 {
		t.Fatal("warm-up did not arm the tail threshold")
	}
	start := time.Now()
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < tailRefresh; i++ {
			b := tr.Begin(TraceContext{})
			root := tr.NextID()
			b.SetRoot(root)
			b.Add(StageQueueWait, root, start, time.Microsecond)
			b.Add(StageExec, root, start, time.Millisecond,
				Str("model", "m"), Int("batch", 4))
			tr.Finish(b, false, time.Millisecond)
		}
	})
	if allocs != 0 {
		t.Fatalf("unsampled trace path allocates: %.1f allocs per %d traces", allocs, tailRefresh)
	}
	if st := tr.Stats(); st.Kept != 0 {
		t.Fatalf("uniform traffic kept %d traces as tail", st.Kept)
	}
}

// TestTailThresholdOnBandEdge pins where the tail threshold sits for a
// known distribution: at the upper edge of the power-of-two band (2^k−1
// µs) holding the p99, not at the finer sub-bucket bound the quantile
// itself resolves to.
func TestTailThresholdOnBandEdge(t *testing.T) {
	tr := NewTracer(Config{SampleRate: 0})
	// 99% at 300µs, 1% at 5ms: the p99 rank lands in the 300µs mass,
	// whose band is [256, 511] µs.
	for i := 0; i < 10*tailRefresh; i++ {
		d := 300 * time.Microsecond
		if i%100 == 99 {
			d = 5 * time.Millisecond
		}
		tr.Finish(tr.Begin(TraceContext{}), false, d)
	}
	const edgeMS = 0.512 // 2^9 µs; the band ends 1µs below
	if thr := tr.Stats().TailThresholdMS; thr < edgeMS-0.001 || thr > edgeMS {
		t.Fatalf("tail threshold = %vms, want the 512µs band edge (±1µs)", thr)
	}
	// Only the 5ms outliers beyond the band were kept.
	if st := tr.Stats(); st.Kept == 0 || st.Kept > 10*tailRefresh/100 {
		t.Fatalf("kept %d traces, want only the beyond-band outliers", st.Kept)
	}
}
