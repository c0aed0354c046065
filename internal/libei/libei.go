// Package libei implements the paper's libei component (§III.D): the
// RESTful API through which every resource of an OpenEI node — data,
// algorithms, models, computing state — is reachable by the cloud, other
// edges, and third-party developers.
//
// The URL scheme follows Figure 6 exactly:
//
//	GET /ei_algorithms/{scenario}/{algorithm}?{args}   — run an algorithm
//	GET /ei_data/realtime/{sensorID}?timestamp=...     — recent samples
//	GET /ei_data/historical/{sensorID}?start=..&end=.. — range query
//
// plus introspection endpoints the framework needs for collaboration:
//
//	GET /ei_models                — loaded models and their ALEM costs
//	GET /ei_status                — node identity, device, package
//	GET /ei_resources             — device capacity + live VCU allocations
//	GET /ei_metrics               — serving queue/batch/latency counters
//	GET /ei_models/{name}/blob    — serialized model download (edge–edge
//	                                and cloud–edge model exchange)
//
// When a serving engine is attached (SetEngine), the built-in algorithm
// /ei_algorithms/serving/infer runs micro-batched inference with admission
// control: overload is HTTP 429, an expired queue deadline is HTTP 408.
//
// Responses use a uniform JSON envelope {"ok":bool, "result":..., "error":...}.
package libei

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"openei/internal/autopilot"
	"openei/internal/datastore"
	"openei/internal/obs"
	"openei/internal/pkgmgr"
	"openei/internal/serving"
)

// Errors surfaced with specific HTTP statuses.
var (
	// ErrNotFound maps to 404.
	ErrNotFound = errors.New("libei: not found")
	// ErrBadRequest maps to 400.
	ErrBadRequest = errors.New("libei: bad request")
)

// AlgorithmFunc executes one algorithm invocation. The returned value is
// JSON-marshalled into the response envelope.
type AlgorithmFunc func(args url.Values) (any, error)

// Registration binds an algorithm to its scenario and name, giving the
// URL /ei_algorithms/{Scenario}/{Name}.
type Registration struct {
	Scenario string
	Name     string
	Fn       AlgorithmFunc
}

// Server is the libei HTTP handler for one OpenEI node.
type Server struct {
	// NodeID identifies this edge in /ei_status.
	NodeID string
	// Store serves /ei_data; may be nil if the node exposes no sensors.
	Store *datastore.Store
	// Manager serves /ei_models; may be nil.
	Manager *pkgmgr.Manager

	mu      sync.RWMutex
	algos   map[string]map[string]AlgorithmFunc
	engine  *serving.Engine
	inferer Inferer
	pilot   func() autopilot.Status
	tracer  *obs.Tracer

	vcu vcuHolder
}

// NewServer returns a Server for the node.
func NewServer(nodeID string, store *datastore.Store, mgr *pkgmgr.Manager) *Server {
	return &Server{
		NodeID:  nodeID,
		Store:   store,
		Manager: mgr,
		algos:   map[string]map[string]AlgorithmFunc{},
	}
}

// Register installs an algorithm; re-registering replaces the handler.
func (s *Server) Register(r Registration) error {
	if r.Scenario == "" || r.Name == "" || r.Fn == nil {
		return fmt.Errorf("%w: incomplete registration %+v", ErrBadRequest, r)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.algos[r.Scenario] == nil {
		s.algos[r.Scenario] = map[string]AlgorithmFunc{}
	}
	s.algos[r.Scenario][r.Name] = r.Fn
	return nil
}

// RegisterAll installs a batch of registrations.
func (s *Server) RegisterAll(rs []Registration) error {
	for _, r := range rs {
		if err := s.Register(r); err != nil {
			return err
		}
	}
	return nil
}

// Algorithms lists registered scenario/name pairs sorted lexically.
func (s *Server) Algorithms() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	for sc, m := range s.algos {
		for name := range m {
			out = append(out, sc+"/"+name)
		}
	}
	sort.Strings(out)
	return out
}

// envelope is the uniform response wrapper.
type envelope struct {
	OK     bool   `json:"ok"`
	Result any    `json:"result,omitempty"`
	Error  string `json:"error,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, env envelope) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(env)
}

func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrNotFound),
		errors.Is(err, datastore.ErrUnknownSensor),
		errors.Is(err, pkgmgr.ErrUnknownModel):
		status = http.StatusNotFound
	case errors.Is(err, ErrBadRequest), errors.Is(err, datastore.ErrBadRange),
		errors.Is(err, serving.ErrBadInput):
		status = http.StatusBadRequest
	case errors.Is(err, serving.ErrOverloaded):
		// Admission control shed the request; clients should back off and
		// retry (the serving engine's bounded queue is full).
		status = http.StatusTooManyRequests
	case errors.Is(err, serving.ErrDeadline), errors.Is(err, context.DeadlineExceeded):
		// Both faces of the same event: ErrDeadline when the pipeline shed
		// the expired request, DeadlineExceeded when the request context
		// lapsed first. The client sees one status either way.
		status = http.StatusRequestTimeout
	case errors.Is(err, serving.ErrClosed):
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, envelope{OK: false, Error: err.Error()})
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, envelope{OK: false, Error: "only GET is supported"})
		return
	}
	parts := splitPath(r.URL.Path)
	switch {
	case len(parts) == 1 && parts[0] == "ei_algorithms":
		writeJSON(w, http.StatusOK, envelope{OK: true, Result: s.Algorithms()})
	case len(parts) == 3 && parts[0] == "ei_algorithms":
		s.handleAlgorithm(w, r, parts[1], parts[2])
	case len(parts) == 3 && parts[0] == "ei_data":
		s.handleData(w, r, parts[1], parts[2])
	case len(parts) == 1 && parts[0] == "ei_models":
		s.handleModels(w)
	case len(parts) == 3 && parts[0] == "ei_models" && parts[2] == "blob":
		s.handleModelBlob(w, parts[1])
	case len(parts) == 1 && parts[0] == "ei_status":
		s.handleStatus(w)
	case len(parts) == 1 && parts[0] == "ei_resources":
		s.handleResources(w)
	case len(parts) == 1 && parts[0] == "ei_metrics":
		s.handleMetrics(w)
	case len(parts) == 1 && parts[0] == "ei_trace":
		s.handleTrace(w, r)
	case len(parts) == 1 && parts[0] == "metrics":
		s.handleProm(w)
	default:
		writeErr(w, fmt.Errorf("%w: %s", ErrNotFound, r.URL.Path))
	}
}

func splitPath(p string) []string {
	var out []string
	for _, s := range strings.Split(p, "/") {
		if s != "" {
			out = append(out, s)
		}
	}
	return out
}

func (s *Server) handleAlgorithm(w http.ResponseWriter, r *http.Request, scenario, name string) {
	s.mu.RLock()
	fn := s.algos[scenario][name]
	s.mu.RUnlock()
	if fn == nil {
		writeErr(w, fmt.Errorf("%w: algorithm %s/%s", ErrNotFound, scenario, name))
		return
	}
	args := r.URL.Query()
	// AlgorithmFunc deliberately sees only url.Values; propagated trace
	// context rides in under a reserved key so the infer route can adopt
	// the caller's trace without widening the signature. Only the header
	// may set it: a client's own ?_trace= would otherwise choose its
	// trace ID and force its sampling verdict.
	args.Del(obs.TraceArg)
	if h := r.Header.Get(obs.TraceHeader); h != "" {
		args.Set(obs.TraceArg, h)
	}
	res, err := fn(args)
	if err != nil {
		writeErr(w, err)
		return
	}
	if ir, ok := res.(InferResult); ok && ir.TraceID != "" {
		w.Header().Set(obs.TraceHeader, ir.TraceID)
	}
	writeJSON(w, http.StatusOK, envelope{OK: true, Result: res})
}

// DataSample is the wire form of a datastore sample.
type DataSample struct {
	At      time.Time `json:"at"`
	Payload []float32 `json:"payload"`
}

func (s *Server) handleData(w http.ResponseWriter, r *http.Request, kind, sensorID string) {
	if s.Store == nil {
		writeErr(w, fmt.Errorf("%w: node has no datastore", ErrNotFound))
		return
	}
	q := r.URL.Query()
	var samples []datastore.Sample
	var err error
	switch kind {
	case "realtime":
		n := 1
		if raw := q.Get("n"); raw != "" {
			n, err = strconv.Atoi(raw)
			if err != nil || n <= 0 {
				writeErr(w, fmt.Errorf("%w: n=%q", ErrBadRequest, raw))
				return
			}
		}
		samples, err = s.Store.Realtime(sensorID, n)
	case "historical":
		var start, end time.Time
		start, err = parseTime(q.Get("start"))
		if err != nil {
			writeErr(w, fmt.Errorf("%w: start: %v", ErrBadRequest, err))
			return
		}
		end, err = parseTime(q.Get("end"))
		if err != nil {
			writeErr(w, fmt.Errorf("%w: end: %v", ErrBadRequest, err))
			return
		}
		samples, err = s.Store.Range(sensorID, start, end)
	default:
		writeErr(w, fmt.Errorf("%w: data type %q (want realtime or historical)", ErrBadRequest, kind))
		return
	}
	if err != nil {
		writeErr(w, err)
		return
	}
	out := make([]DataSample, len(samples))
	for i, smp := range samples {
		out[i] = DataSample{At: smp.At, Payload: smp.Payload}
	}
	writeJSON(w, http.StatusOK, envelope{OK: true, Result: out})
}

func parseTime(s string) (time.Time, error) {
	if s == "" {
		return time.Time{}, errors.New("missing timestamp")
	}
	return time.Parse(time.RFC3339, s)
}

// ModelStatus is the wire form of one loaded model's state.
type ModelStatus struct {
	Name      string  `json:"name"`
	LatencyMS float64 `json:"latency_ms"`
	EnergyJ   float64 `json:"energy_j"`
	MemoryMB  float64 `json:"memory_mb"`
}

func (s *Server) handleModels(w http.ResponseWriter) {
	if s.Manager == nil {
		writeErr(w, fmt.Errorf("%w: node has no package manager", ErrNotFound))
		return
	}
	var out []ModelStatus
	for _, name := range s.Manager.Models() {
		a, err := s.Manager.ALEMOf(name)
		if err != nil {
			writeErr(w, err)
			return
		}
		out = append(out, ModelStatus{
			Name:      name,
			LatencyMS: float64(a.Latency) / float64(time.Millisecond),
			EnergyJ:   a.Energy,
			MemoryMB:  float64(a.Memory) / (1 << 20),
		})
	}
	writeJSON(w, http.StatusOK, envelope{OK: true, Result: out})
}

func (s *Server) handleModelBlob(w http.ResponseWriter, name string) {
	if s.Manager == nil {
		writeErr(w, fmt.Errorf("%w: node has no package manager", ErrNotFound))
		return
	}
	blob, err := s.Manager.Snapshot(name)
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(blob)
}

// Status is the wire form of /ei_status. Beyond node identity it carries
// the placement facts cluster membership gossips: the loaded-model set
// with per-representation weight bytes, and the device memory capacity —
// one status probe is both a heartbeat and a placement advertisement.
type Status struct {
	NodeID     string   `json:"node_id"`
	Device     string   `json:"device"`
	Package    string   `json:"package"`
	Algorithms []string `json:"algorithms"`
	Sensors    []string `json:"sensors"`
	// Models is the loaded-model set with deployed representation sizes
	// (int8 artifacts count at one byte per parameter).
	Models []pkgmgr.Placement `json:"models,omitempty"`
	// MemBytes is the device's RAM budget — the capacity signal a cluster
	// sharder weighs placements against.
	MemBytes int64 `json:"mem_bytes,omitempty"`
}

func (s *Server) handleStatus(w http.ResponseWriter) {
	st := Status{NodeID: s.NodeID, Algorithms: s.Algorithms()}
	if s.Manager != nil {
		st.Device = s.Manager.Device().Name
		st.Package = s.Manager.Package().Name
		st.Models = s.Manager.Placements()
		st.MemBytes = s.Manager.Device().MemBytes
	}
	if s.Store != nil {
		for _, info := range s.Store.Sensors() {
			st.Sensors = append(st.Sensors, info.ID)
		}
	}
	writeJSON(w, http.StatusOK, envelope{OK: true, Result: st})
}
