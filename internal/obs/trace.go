// Package obs is the node- and gateway-side observability layer: a
// zero-dependency request tracer (spans, head sampling, ring-buffer
// storage, cross-process propagation over the X-Openei-Trace header), the
// process's one latency histogram (Histogram), and a Prometheus
// text-exposition renderer driven by the same snapshots the JSON metrics
// endpoints serve.
//
// The tracer is built for the serving hot path: an active trace is a
// fixed-size span buffer drawn from a free list, spans append
// under a per-trace mutex that is never contended on the steady path, and
// a request that ends unsampled returns its buffer without touching the
// heap — the 0 allocs/op steady-state contract of the serving engine
// holds with tracing compiled in. Sampling is decided at the head
// (probabilistic, propagated downstream so gateway and node keep the same
// verdict) but errors and p99-tail requests are always kept: the buffer
// records every request and the keep/drop decision happens at Finish,
// when the outcome is known.
package obs

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Stage names instrumented through the request path, gateway receive to
// plan execute. docs/TRACING.md documents the span tree they form.
const (
	StageGateway   = "gateway"    // gateway receive → respond (root, gateway side)
	StagePick      = "pick"       // one routing decision (p2c over preference tiers)
	StageAttempt   = "attempt"    // one proxied try against one node (retry/hedge = more)
	StageInfer     = "infer"      // node admission → respond (root, node side)
	StageQueueWait = "queue_wait" // tenant scheduler backlog (enqueue → a replica pulled it)
	StageBatchWait = "batch_wait" // batch assembly (pull → execution start; microseconds)
	StageExec      = "exec"       // replica plan execution (InferBatch)
	StageOffload   = "offload"    // autopilot edge→cloud fallback hop
)

// TraceHeader carries trace context gateway→node (and echoes trace IDs
// back to clients on responses).
const TraceHeader = "X-Openei-Trace"

// TraceArg is the reserved query-argument key libei uses to hand the
// incoming TraceHeader value to algorithm handlers without widening the
// AlgorithmFunc signature.
const TraceArg = "_trace"

// Attr is one span attribute. Exactly one of Str/Int is meaningful: a
// non-empty Str wins, otherwise Int. The split avoids integer formatting
// (and its allocation) on the recording path.
type Attr struct {
	Key string
	Str string
	Int int64
}

// Str builds a string attribute.
func Str(k, v string) Attr { return Attr{Key: k, Str: v} }

// Int builds an integer attribute.
func Int(k string, v int64) Attr { return Attr{Key: k, Int: v} }

const (
	maxSpans = 32 // spans per trace buffer (overflow drops, counted)
	maxAttrs = 4  // attributes per span
)

// Span is one recorded stage of a request.
type Span struct {
	ID     uint64
	Parent uint64
	Stage  string
	Start  time.Time
	Dur    time.Duration
	Err    bool

	attrs  [maxAttrs]Attr
	nattrs int
}

// Attrs returns the span's attributes.
func (s *Span) Attrs() []Attr { return s.attrs[:s.nattrs] }

// WireSpan is the JSON form of a span, served by /ei_trace and /gw_trace.
type WireSpan struct {
	TraceID     string         `json:"trace_id"`
	SpanID      string         `json:"span_id"`
	ParentID    string         `json:"parent_id,omitempty"`
	Stage       string         `json:"stage"`
	Source      string         `json:"source,omitempty"`
	StartUnixNS int64          `json:"start_unix_ns"`
	DurationMS  float64        `json:"duration_ms"`
	Err         bool           `json:"err,omitempty"`
	Attrs       map[string]any `json:"attrs,omitempty"`
}

// Config tunes a Tracer.
type Config struct {
	// SampleRate is the probabilistic head-sampling rate in [0, 1];
	// errors and p99-tail requests are kept regardless.
	SampleRate float64
	// Ring bounds the stored (kept) traces; default 256.
	Ring int
	// Source stamps every span this tracer stores (node ID or "gateway"),
	// so a stitched cross-process trace attributes each span.
	Source string
}

// Tracer records request traces. A nil *Tracer is valid and records
// nothing; every method is nil-safe so instrumentation sites need no
// guards.
type Tracer struct {
	cfg       Config
	threshold uint64 // head-sample verdict: id-derived hash < threshold

	// Free list of recycled trace buffers: a mutex-guarded stack of fixed
	// capacity instead of sync.Pool, so a GC cycle cannot empty it — the
	// unsampled steady path must never allocate.
	freeMu sync.Mutex
	free   []*TraceBuf

	idSeq    atomic.Uint64
	rndState atomic.Uint64

	// tail is the distribution of finished-request durations. tailNS
	// caches the keep threshold (upper edge of the power-of-two band
	// holding the p99), refreshed every tailRefresh finishes; 0 while
	// under tailMinCount.
	tail   Histogram
	tailNS atomic.Int64

	started  atomic.Uint64 // traces begun
	kept     atomic.Uint64 // traces committed to the ring
	dropped  atomic.Uint64 // traces discarded at Finish
	overflow atomic.Uint64 // spans dropped by a full buffer

	mu    sync.Mutex
	ring  []stored
	next  int
	index map[uint64]int
}

// stored is one kept trace in the ring, packed: the ring is what a busy
// node's tracer holds live, and a recording Span reserves 240 bytes
// whatever it uses. A kept span carries only the attributes it set, as a
// window into one slice the trace shares.
type stored struct {
	id    uint64
	spans []keptSpan
	attrs []Attr
}

type keptSpan struct {
	id, parent uint64
	stage      string
	startNS    int64 // Unix nanoseconds
	dur        time.Duration
	err        bool
	attr0, n   uint8 // stored.attrs[attr0 : attr0+n]
}

const (
	tailMinCount = 256 // finishes before tail-keep activates
	tailRefresh  = 128 // finishes between threshold recomputes
	freeCap      = 64  // recycled buffers retained
)

// NewTracer builds a tracer; rate is clamped to [0, 1].
func NewTracer(cfg Config) *Tracer {
	if cfg.Ring <= 0 {
		cfg.Ring = 256
	}
	if cfg.SampleRate < 0 {
		cfg.SampleRate = 0
	}
	t := &Tracer{
		cfg:   cfg,
		free:  make([]*TraceBuf, 0, freeCap),
		ring:  make([]stored, cfg.Ring),
		index: make(map[uint64]int, cfg.Ring),
	}
	if cfg.SampleRate >= 1 {
		t.threshold = ^uint64(0)
	} else {
		t.threshold = uint64(cfg.SampleRate * float64(1<<63) * 2)
	}
	// Seed the ID stream per tracer — wall clock, a process-wide counter,
	// and the source name — so two processes (or two tracers in one)
	// never mint the same span/trace IDs; a shared seed would collide
	// span IDs inside every stitched gateway+node document.
	seed := mix(uint64(time.Now().UnixNano()) + tracerSeed.Add(0x9E3779B97F4A7C15))
	for _, c := range cfg.Source {
		seed = mix(seed ^ uint64(c))
	}
	t.idSeq.Store(seed)
	t.rndState.Store(seed ^ 0x9E3779B97F4A7C15)
	return t
}

// tracerSeed distinguishes tracers created in the same nanosecond.
var tracerSeed atomic.Uint64

// splitmix64 finalizer: turns a sequential counter into well-mixed bits.
func mix(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// NextID returns a fresh span/trace ID (never 0).
func (t *Tracer) NextID() uint64 {
	if t == nil {
		return 0
	}
	for {
		if id := mix(t.idSeq.Add(0x9E3779B97F4A7C15)); id != 0 {
			return id
		}
	}
}

// TraceContext is the propagated half of a trace: the IDs and sampling
// verdict that cross the gateway→node hop in the X-Openei-Trace header.
type TraceContext struct {
	TraceID uint64
	Parent  uint64
	Sampled bool
}

// String encodes the context for the wire: "traceid-parentid-s" with
// 16-hex-digit IDs and s ∈ {0, 1}.
func (tc TraceContext) String() string {
	var b [35]byte
	hex16(b[0:16], tc.TraceID)
	b[16] = '-'
	hex16(b[17:33], tc.Parent)
	b[33] = '-'
	if tc.Sampled {
		b[34] = '1'
	} else {
		b[34] = '0'
	}
	return string(b[:])
}

func hex16(dst []byte, v uint64) {
	const digits = "0123456789abcdef"
	for i := 15; i >= 0; i-- {
		dst[i] = digits[v&0xF]
		v >>= 4
	}
}

// IDString renders an ID as the 16-hex-digit form used everywhere on the
// wire (trace_id fields, /gw_trace?id=).
func IDString(id uint64) string {
	var b [16]byte
	hex16(b[:], id)
	return string(b[:])
}

// ParseID parses a 16-hex-digit (or shorter) ID.
func ParseID(s string) (uint64, bool) {
	v, err := strconv.ParseUint(strings.TrimSpace(s), 16, 64)
	return v, err == nil && v != 0
}

// ParseTraceContext decodes a header value; ok is false for anything
// malformed (the request simply starts a fresh trace).
func ParseTraceContext(s string) (TraceContext, bool) {
	parts := strings.Split(strings.TrimSpace(s), "-")
	if len(parts) != 3 {
		return TraceContext{}, false
	}
	id, err := strconv.ParseUint(parts[0], 16, 64)
	if err != nil || id == 0 {
		return TraceContext{}, false
	}
	parent, err := strconv.ParseUint(parts[1], 16, 64)
	if err != nil {
		return TraceContext{}, false
	}
	return TraceContext{TraceID: id, Parent: parent, Sampled: parts[2] == "1"}, true
}

// TraceBuf is one in-flight request's span buffer. It is reference
// counted: the side that began the trace holds one reference, each
// concurrent recorder (a pipeline worker, a hedged attempt) holds another
// via Ref/Unref, and the keep/drop commit runs when the last reference
// drops — so a worker that outlives a cancelled caller still lands its
// spans before the buffer is recycled.
type TraceBuf struct {
	t       *Tracer
	id      uint64
	parent  uint64 // propagated parent span (the gateway attempt)
	root    uint64 // local root span ID (set once, before fan-out)
	sampled bool
	refs    atomic.Int32
	errFlag atomic.Bool
	totalNS atomic.Int64

	mu    sync.Mutex
	spans [maxSpans]Span
	n     int
}

// Begin starts recording a request. tc carries propagated context (zero
// value for a trace originating here). Nil-safe: a nil tracer returns a
// nil buffer, and every TraceBuf method is a no-op on nil.
func (t *Tracer) Begin(tc TraceContext) *TraceBuf {
	if t == nil {
		return nil
	}
	t.started.Add(1)
	b := t.popFree()
	if b == nil {
		b = &TraceBuf{}
	}
	b.t = t
	if tc.TraceID != 0 {
		b.id = tc.TraceID
		b.sampled = tc.Sampled
	} else {
		b.id = t.NextID()
		b.sampled = mix(t.rndState.Add(0x9E3779B97F4A7C15)) < t.threshold
	}
	b.parent = tc.Parent
	b.root = 0
	b.errFlag.Store(false)
	b.totalNS.Store(0)
	b.n = 0
	b.refs.Store(1)
	return b
}

func (t *Tracer) popFree() *TraceBuf {
	t.freeMu.Lock()
	defer t.freeMu.Unlock()
	n := len(t.free)
	if n == 0 {
		return nil
	}
	b := t.free[n-1]
	t.free[n-1] = nil
	t.free = t.free[:n-1]
	return b
}

func (t *Tracer) pushFree(b *TraceBuf) {
	t.freeMu.Lock()
	if len(t.free) < cap(t.free) {
		t.free = append(t.free, b)
	}
	t.freeMu.Unlock()
}

// ID returns the trace ID (0 on nil).
func (b *TraceBuf) ID() uint64 {
	if b == nil {
		return 0
	}
	return b.id
}

// IDString returns the wire form of the trace ID ("" on nil).
func (b *TraceBuf) IDString() string {
	if b == nil {
		return ""
	}
	return IDString(b.id)
}

// Sampled reports the head-sampling verdict.
func (b *TraceBuf) Sampled() bool { return b != nil && b.sampled }

// Parent returns the propagated parent span ID.
func (b *TraceBuf) Parent() uint64 {
	if b == nil {
		return 0
	}
	return b.parent
}

// SetRoot records the local root span's ID so downstream recorders
// (pipeline stages, offload hops) can parent to it. Call before the
// request fans out.
func (b *TraceBuf) SetRoot(id uint64) {
	if b != nil {
		b.root = id
	}
}

// Root returns the local root span ID (0 when unset).
func (b *TraceBuf) Root() uint64 {
	if b == nil {
		return 0
	}
	return b.root
}

// Ref takes an additional reference; pair with Unref.
func (b *TraceBuf) Ref() {
	if b != nil {
		b.refs.Add(1)
	}
}

// Unref drops a reference; the last drop commits the trace.
func (b *TraceBuf) Unref() {
	if b == nil {
		return
	}
	if b.refs.Add(-1) == 0 {
		b.t.commit(b)
	}
}

// MarkErr flags the trace as failed, which forces it to be kept.
func (b *TraceBuf) MarkErr() {
	if b != nil {
		b.errFlag.Store(true)
	}
}

// Add records a completed span and returns its ID. attrs beyond the
// per-span cap are dropped. The variadic slice does not escape, so calls
// with literal Attr values stay on the caller's stack (asserted by the
// package's allocation test).
func (b *TraceBuf) Add(stage string, parent uint64, start time.Time, d time.Duration, attrs ...Attr) uint64 {
	if b == nil {
		return 0
	}
	return b.AddWithID(b.t.NextID(), stage, parent, start, d, attrs...)
}

// AddWithID is Add with a caller-allocated span ID — used when the ID
// must exist before the span completes (a gateway attempt propagates its
// span ID to the node while the attempt is still in flight).
func (b *TraceBuf) AddWithID(id uint64, stage string, parent uint64, start time.Time, d time.Duration, attrs ...Attr) uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	if b.n >= maxSpans {
		b.mu.Unlock()
		b.t.overflow.Add(1)
		return id
	}
	sp := &b.spans[b.n]
	b.n++
	sp.ID = id
	sp.Parent = parent
	sp.Stage = stage
	sp.Start = start
	sp.Dur = d
	sp.Err = false
	sp.nattrs = copy(sp.attrs[:], attrs)
	b.mu.Unlock()
	return id
}

// SetAttr appends an attribute to an already-recorded span (found by ID).
// Used to mark the winning attempt once the race resolves.
func (b *TraceBuf) SetAttr(spanID uint64, a Attr) {
	if b == nil {
		return
	}
	b.mu.Lock()
	for i := 0; i < b.n; i++ {
		sp := &b.spans[i]
		if sp.ID != spanID {
			continue
		}
		if sp.nattrs < maxAttrs {
			sp.attrs[sp.nattrs] = a
			sp.nattrs++
		}
		break
	}
	b.mu.Unlock()
}

// Finish ends the side of the trace that began it: records the outcome,
// feeds the tail estimator, and drops the beginner's reference. Spans
// appended by still-running recorders (Ref holders) are committed by the
// last Unref.
func (t *Tracer) Finish(b *TraceBuf, failed bool, total time.Duration) {
	if t == nil || b == nil {
		return
	}
	if failed {
		b.errFlag.Store(true)
	}
	b.totalNS.Store(int64(total))
	t.observeTail(total)
	b.Unref()
}

// observeTail records a finished duration and periodically recomputes the
// always-keep threshold: the upper edge of the power-of-two band holding
// the p99 — a finished request strictly beyond it is a tail outlier worth
// keeping even when head sampling said no. The band edge, not the finer
// sub-bucket, so uniform traffic sitting in the p99 band does not all
// qualify as tail.
func (t *Tracer) observeTail(total time.Duration) {
	n := t.tail.Observe(total)
	if n < tailMinCount || n%tailRefresh != 0 {
		return
	}
	t.tailNS.Store(int64(octaveUpperBound(t.tail.Snapshot().Quantile(0.99))))
}

// commit runs the keep/drop decision when the last reference drops.
func (t *Tracer) commit(b *TraceBuf) {
	keep := b.sampled || b.errFlag.Load()
	if !keep {
		if thr := t.tailNS.Load(); thr > 0 && b.totalNS.Load() > thr {
			keep = true
		}
	}
	if !keep {
		t.dropped.Add(1)
		t.pushFree(b)
		return
	}
	// Attr strings are often substrings of the HTTP request line (a path,
	// a query value); the ring owns copies, or every kept trace would pin
	// a multi-kilobyte URL for the sake of a model name.
	b.mu.Lock()
	st := stored{id: b.id, spans: make([]keptSpan, b.n)}
	nattrs := 0
	for i := range st.spans {
		nattrs += b.spans[i].nattrs
	}
	st.attrs = make([]Attr, 0, nattrs)
	for i := range st.spans {
		sp := &b.spans[i]
		st.spans[i] = keptSpan{
			id: sp.ID, parent: sp.Parent, stage: sp.Stage,
			startNS: sp.Start.UnixNano(), dur: sp.Dur, err: sp.Err,
			attr0: uint8(len(st.attrs)), n: uint8(sp.nattrs),
		}
		for _, a := range sp.Attrs() {
			a.Str = strings.Clone(a.Str)
			st.attrs = append(st.attrs, a)
		}
	}
	b.mu.Unlock()
	t.kept.Add(1)
	t.mu.Lock()
	if old := t.ring[t.next]; old.id != 0 && t.index[old.id] == t.next {
		delete(t.index, old.id)
	}
	t.ring[t.next] = st
	t.index[b.id] = t.next
	t.next = (t.next + 1) % len(t.ring)
	t.mu.Unlock()
	t.pushFree(b)
}

// Trace returns the stored spans of a kept trace in wire form.
func (t *Tracer) Trace(id uint64) ([]WireSpan, bool) {
	if t == nil {
		return nil, false
	}
	t.mu.Lock()
	idx, ok := t.index[id]
	var st stored
	if ok {
		st = t.ring[idx]
	}
	t.mu.Unlock()
	if !ok {
		return nil, false
	}
	out := make([]WireSpan, len(st.spans))
	for i, sp := range st.spans {
		out[i] = t.wire(id, sp, st.attrs[sp.attr0:sp.attr0+sp.n])
	}
	return out, true
}

// RecentIDs lists up to n most-recently-kept trace IDs (wire form),
// newest first.
func (t *Tracer) RecentIDs(n int) []string {
	if t == nil || n <= 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, n)
	for i := 0; i < len(t.ring) && len(out) < n; i++ {
		idx := (t.next - 1 - i + 2*len(t.ring)) % len(t.ring)
		if s := t.ring[idx]; s.id != 0 {
			out = append(out, IDString(s.id))
		}
	}
	return out
}

func (t *Tracer) wire(trace uint64, sp keptSpan, attrs []Attr) WireSpan {
	w := WireSpan{
		TraceID:     IDString(trace),
		SpanID:      IDString(sp.id),
		Stage:       sp.stage,
		Source:      t.cfg.Source,
		StartUnixNS: sp.startNS,
		DurationMS:  float64(sp.dur) / float64(time.Millisecond),
		Err:         sp.err,
	}
	if sp.parent != 0 {
		w.ParentID = IDString(sp.parent)
	}
	if len(attrs) > 0 {
		w.Attrs = make(map[string]any, len(attrs))
		for _, a := range attrs {
			if a.Str != "" {
				w.Attrs[a.Key] = a.Str
			} else {
				w.Attrs[a.Key] = a.Int
			}
		}
	}
	return w
}

// Stats is the tracer's own counter snapshot (the `trace` block of the
// metrics endpoints).
type Stats struct {
	// Started counts traces begun; Kept were committed to the ring
	// (sampled, errored, or tail); Dropped finished unsampled.
	Started uint64 `json:"started"`
	Kept    uint64 `json:"kept"`
	Dropped uint64 `json:"dropped"`
	// SpanOverflow counts spans lost to a full per-trace buffer.
	SpanOverflow uint64 `json:"span_overflow"`
	// SampleRate echoes the configured head-sampling rate.
	SampleRate float64 `json:"sample_rate"`
	// TailThresholdMS is the live always-keep latency threshold (0 until
	// enough requests have finished to estimate a p99).
	TailThresholdMS float64 `json:"tail_threshold_ms"`
}

// Stats snapshots the tracer's counters; zero value on nil.
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	return Stats{
		Started:         t.started.Load(),
		Kept:            t.kept.Load(),
		Dropped:         t.dropped.Load(),
		SpanOverflow:    t.overflow.Load(),
		SampleRate:      t.cfg.SampleRate,
		TailThresholdMS: float64(t.tailNS.Load()) / 1e6,
	}
}
