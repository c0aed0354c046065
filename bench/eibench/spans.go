package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"openei/internal/libei"
	"openei/internal/serving"
	"openei/internal/tensor"
)

// Span names, one per seam the benchmark wraps from outside. Each span's
// parent is the next one out; spanClient is the root.
const (
	spanClient   = "client.infer"     // around libei.Client.InferAs (from due time in the open loop)
	spanGateway  = "gateway.serve"    // http.Handler around the gateway
	spanUpstream = "gateway.upstream" // gateway.Config.Transport round trip, to body close
	spanLibei    = "libei.serve"      // http.Handler around the node's libei.Server
	spanServing  = "serving.infer"    // libei.Inferer around the serving engine
)

var spanParent = map[string]string{
	spanGateway:  spanClient,
	spanUpstream: spanGateway,
	spanLibei:    spanUpstream,
	spanServing:  spanLibei,
}

const (
	inferPath  = "/ei_algorithms/serving/infer"
	benchIDArg = "&bench_id="
)

// span is one recorded interval. ID is the request's bench_id, 0 where no
// query argument can carry it (below the libei handler).
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	ID      uint64 `json:"id,omitempty"`
	StartNS int64  `json:"start_ns"` // since the recorder's epoch
	EndNS   int64  `json:"end_ns"`
}

// recorder keeps the traced run's spans in memory. It records only while
// on, and is switched when no request is in flight, so every recorded
// request has all of its spans.
type recorder struct {
	epoch time.Time
	on    atomic.Bool

	mu    sync.Mutex
	spans []span

	urlBytes  atomic.Uint64 // request URI bytes seen by the node handler
	respBytes atomic.Uint64 // response body bytes written by the node handler
}

func newRecorder() *recorder {
	// Preallocated for a full traced window so appends never reallocate
	// inside the measurement.
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<17)}
}

func (r *recorder) add(name string, id uint64, start, end time.Time) {
	r.mu.Lock()
	r.spans = append(r.spans, span{
		Name: name, Parent: spanParent[name], ID: id,
		StartNS: int64(start.Sub(r.epoch)), EndNS: int64(end.Sub(r.epoch)),
	})
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[:len(r.spans):len(r.spans)]
}

// recording reports whether req is an infer request inside the window.
func (r *recorder) recording(req *http.Request) bool {
	return r.on.Load() && req.URL.Path == inferPath
}

// benchID reads the request id the client transport appended; it is the
// last query argument, so the (possibly 45 kB) query is not parsed.
func benchID(rawQuery string) uint64 {
	i := strings.LastIndex(rawQuery, benchIDArg)
	if i < 0 {
		return 0
	}
	id, _ := strconv.ParseUint(rawQuery[i+len(benchIDArg):], 10, 64)
	return id
}

// handler records a span around next for every infer request.
func (r *recorder) handler(name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.recording(req) {
			next.ServeHTTP(w, req)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, req)
		r.add(name, benchID(req.URL.RawQuery), start, time.Now())
	})
}

// countingWriter counts the body bytes a handler writes.
type countingWriter struct {
	http.ResponseWriter
	n uint64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += uint64(n)
	return n, err
}

// nodeHandler is handler for the libei seam, also counting URL and
// response bytes.
func (r *recorder) nodeHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.recording(req) {
			next.ServeHTTP(w, req)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(cw, req)
		r.add(spanLibei, benchID(req.URL.RawQuery), start, time.Now())
		r.urlBytes.Add(uint64(len(req.RequestURI)))
		r.respBytes.Add(cw.n)
	})
}

// upstreamTransport records the gateway's round trip to a node, ended
// when the gateway has read and closed the response body.
type upstreamTransport struct {
	rec  *recorder
	base http.RoundTripper
}

type spanBody struct {
	io.ReadCloser
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.done()
	return err
}

func (t *upstreamTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.rec.recording(req) {
		return t.base.RoundTrip(req)
	}
	start := time.Now()
	id := benchID(req.URL.RawQuery)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.rec.add(spanUpstream, id, start, time.Now())
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		t.rec.add(spanUpstream, id, start, time.Now())
	}}
	return resp, nil
}

// clientCall is what the load loop hands the client transport through the
// request context: the id to append, and back, when the HTTP exchange
// began (everything before it is building the CSV query).
type clientCall struct {
	id        uint64
	sendStart time.Time
}

type clientCallKey struct{}

// clientTransport appends bench_id to the outgoing infer URL and stamps
// the moment the encoded request reached the transport.
type clientTransport struct {
	base http.RoundTripper
}

func (t *clientTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	call, _ := req.Context().Value(clientCallKey{}).(*clientCall)
	if call == nil {
		return t.base.RoundTrip(req)
	}
	call.sendStart = time.Now()
	// A RoundTripper must not modify the caller's request.
	out := req.Clone(req.Context())
	out.URL.RawQuery += benchIDArg + strconv.FormatUint(call.id, 10)
	return t.base.RoundTrip(out)
}

// tracedInferer records the span around the serving engine.
type tracedInferer struct {
	rec  *recorder
	next libei.Inferer
}

func (t *tracedInferer) Infer(ctx context.Context, model string, x *tensor.Tensor) (serving.Result, error) {
	if !t.rec.on.Load() {
		return t.next.Infer(ctx, model, x)
	}
	start := time.Now()
	res, err := t.next.Infer(ctx, model, x)
	t.rec.add(spanServing, 0, start, time.Now())
	return res, err
}

func (t *tracedInferer) InferWithDeadline(model string, x *tensor.Tensor, d time.Duration) (serving.Result, error) {
	return t.next.InferWithDeadline(model, x, d)
}

// spanMeans returns, per span name, the mean duration and the mean self
// time per root span, in nanoseconds. A name's self time is its summed
// duration minus the summed duration of the spans that name it as parent.
// Every recorded request has one span of each name nested in its parent,
// so the sums subtract exactly and the self times add up to the mean root
// duration.
func spanMeans(spans []span) (mean, self map[string]float64, roots int) {
	mean, self = map[string]float64{}, map[string]float64{}
	count := map[string]float64{}
	for _, s := range spans {
		d := float64(s.EndNS - s.StartNS)
		mean[s.Name] += d
		count[s.Name]++
		self[s.Name] += d
		if s.Parent == "" {
			roots++
		} else {
			self[s.Parent] -= d
		}
	}
	for name := range mean {
		mean[name] /= count[name]
		if roots > 0 {
			self[name] /= float64(roots)
		}
	}
	return mean, self, roots
}

// dumpSpans writes the spans as JSON lines.
func dumpSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
