package libei

import (
	"fmt"
	"net/http"
	"sort"

	"openei/internal/obs"
)

// Tracing and Prometheus exposition for the node API:
//
//	GET /ei_trace            — recently kept trace IDs
//	GET /ei_trace?id={hex}   — one stored trace's spans
//	GET /metrics             — Prometheus text exposition (format 0.0.4)
//	                           of the same snapshot /ei_metrics serves
//
// Trace context arrives on the X-Openei-Trace request header (injected
// into algorithm args as the reserved _trace key) and the served trace ID
// is echoed back in the same response header plus the infer result's
// trace_id field.

// SetTracer attaches the node's request tracer: the infer route begins a
// trace per request (adopting gateway-propagated context when present),
// /ei_trace serves stored spans, and /ei_metrics gains the tracer's
// counters. A nil tracer detaches tracing; the endpoints 404.
func (s *Server) SetTracer(t *obs.Tracer) {
	s.mu.Lock()
	s.tracer = t
	s.mu.Unlock()
}

// Tracer returns the attached tracer, or nil.
func (s *Server) Tracer() *obs.Tracer {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tracer
}

// TraceDoc is the wire form of /ei_trace?id= and /gw_trace?id=: every
// stored span of one trace. A gateway-stitched document contains spans
// from multiple sources (the gateway's own plus each serving node's).
type TraceDoc struct {
	TraceID string         `json:"trace_id"`
	Spans   []obs.WireSpan `json:"spans"`
}

// SortSpans orders a stitched document by start time (stable and
// readable; the parent IDs carry the tree structure).
func (d *TraceDoc) SortSpans() {
	sort.SliceStable(d.Spans, func(i, j int) bool {
		return d.Spans[i].StartUnixNS < d.Spans[j].StartUnixNS
	})
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	t := s.Tracer()
	if t == nil {
		writeErr(w, fmt.Errorf("%w: node has no tracer", ErrNotFound))
		return
	}
	raw := r.URL.Query().Get("id")
	if raw == "" {
		writeJSON(w, http.StatusOK, envelope{OK: true, Result: t.RecentIDs(32)})
		return
	}
	id, ok := obs.ParseID(raw)
	if !ok {
		writeErr(w, fmt.Errorf("%w: id=%q", ErrBadRequest, raw))
		return
	}
	spans, ok := t.Trace(id)
	if !ok {
		writeErr(w, fmt.Errorf("%w: trace %s not stored (unsampled or evicted)", ErrNotFound, raw))
		return
	}
	doc := TraceDoc{TraceID: obs.IDString(id), Spans: spans}
	doc.SortSpans()
	writeJSON(w, http.StatusOK, envelope{OK: true, Result: doc})
}

// handleProm renders the /ei_metrics snapshot — the same struct, built by
// the same code path — in Prometheus exposition format, plus the raw HDR
// histogram buckets the JSON view only summarizes.
func (s *Server) handleProm(w http.ResponseWriter) {
	m := s.metricsSnapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WriteProm(w, "openei", m)
	if e := s.Engine(); e != nil {
		obs.WriteHistograms(w, "openei", e.HistogramExports())
	}
}
