package libei

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"openei/internal/obs"
)

// Typed client-side errors: callers branch on the node's admission verdict
// with errors.Is instead of string-matching status text. A gateway uses
// them to decide what is surfaced (overload, deadline) versus what
// triggers failover (everything transport-level or 5xx).
var (
	// ErrOverloaded means the node shed the request (HTTP 429): its
	// serving queue was full at admission.
	ErrOverloaded = errors.New("libei: node overloaded")
	// ErrDeadline means the request's deadline expired in the node's
	// queue (HTTP 408).
	ErrDeadline = errors.New("libei: deadline expired on node")
	// ErrUnavailable means the node is up but not serving (HTTP 503,
	// e.g. a closed engine).
	ErrUnavailable = errors.New("libei: node unavailable")
)

// StatusError is a non-2xx node response. It unwraps to the typed error
// matching its code, so errors.Is(err, ErrOverloaded) works, and
// errors.As exposes the raw status for anything else.
type StatusError struct {
	// Path is the request path that failed.
	Path string
	// Code is the HTTP status.
	Code int
	// Message is the node's error text (envelope error or raw body).
	Message string
	// TraceID is the failed request's trace ID when the responder echoed
	// one (X-Openei-Trace) — a gateway always does. Resolve it at
	// /gw_trace?id= to see exactly where the request died.
	TraceID string
}

// Error implements error.
func (e *StatusError) Error() string {
	return fmt.Sprintf("libei client: %s: status %d: %s", e.Path, e.Code, e.Message)
}

// Unwrap maps well-known statuses to their typed sentinel.
func (e *StatusError) Unwrap() error {
	switch e.Code {
	case http.StatusTooManyRequests:
		return ErrOverloaded
	case http.StatusRequestTimeout:
		return ErrDeadline
	case http.StatusServiceUnavailable:
		return ErrUnavailable
	}
	return nil
}

// Client is a typed client for a remote OpenEI node's libei API; it is what
// other edges, the cloud, and third-party tools (cmd/eictl) use. Methods
// come in pairs: Foo uses context.Background, FooCtx threads a caller
// context through the HTTP request for cancellation and deadlines.
type Client struct {
	// BaseURL is the node address, e.g. "http://192.168.1.7:8080".
	BaseURL string
	// HTTPClient defaults to a client with a 10 s timeout.
	HTTPClient *http.Client

	// Lifetime transport counters (the gateway's per-node view).
	nRequests   atomic.Uint64
	nErrors     atomic.Uint64
	roundTripNS atomic.Uint64 // summed round-trip time
}

// NewClient returns a client for the node at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{
		BaseURL:    baseURL,
		HTTPClient: &http.Client{Timeout: 10 * time.Second},
	}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// observe records one request's transport outcome. Caller cancellation
// and caller deadline expiry are not transport errors: a hedge or retry
// loser whose context ends says nothing about the node's link.
func (c *Client) observe(start time.Time, err error) {
	c.nRequests.Add(1)
	c.roundTripNS.Add(uint64(time.Since(start)))
	if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		c.nErrors.Add(1)
	}
}

// ClientStats is a client's lifetime transport counters: requests issued,
// transport-level failures (dial/reset/timeout — HTTP error statuses do
// not count), and mean round-trip latency.
type ClientStats struct {
	Requests        uint64  `json:"requests"`
	TransportErrors uint64  `json:"transport_errors"`
	AvgLatencyMS    float64 `json:"avg_latency_ms"`
}

// Stats snapshots the client's transport counters.
func (c *Client) Stats() ClientStats {
	n := c.nRequests.Load()
	s := ClientStats{Requests: n, TransportErrors: c.nErrors.Load()}
	if n > 0 {
		s.AvgLatencyMS = float64(c.roundTripNS.Load()) / float64(n) / 1e6
	}
	return s
}

// ForwardResult is the verbatim outcome of one proxied request.
type ForwardResult struct {
	Status      int
	ContentType string
	Body        []byte
}

// maxForwardBody bounds a forwarded response body (model blobs are the
// largest payloads; 32 MiB is far above any current model).
const maxForwardBody = 32 << 20

// Forward issues a GET for pathAndQuery verbatim and returns the raw
// status and body without interpreting the JSON envelope. Each call
// builds a fresh request, so a front tier can clone one inbound request
// across retry and hedge attempts. Transport failures return an error;
// any HTTP status — including 4xx/5xx — comes back in the result for the
// caller to interpret.
func (c *Client) Forward(ctx context.Context, pathAndQuery string) (ForwardResult, error) {
	return c.ForwardTrace(ctx, pathAndQuery, "")
}

// ForwardTrace is Forward with trace context attached: a non-empty trace
// (an encoded obs.TraceContext) rides the X-Openei-Trace request header,
// so the receiving node adopts the caller's trace ID and sampling
// verdict. The gateway uses it to give each retry/hedge attempt its own
// parent span.
func (c *Client) ForwardTrace(ctx context.Context, pathAndQuery, trace string) (ForwardResult, error) {
	if !strings.HasPrefix(pathAndQuery, "/") {
		pathAndQuery = "/" + pathAndQuery
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+pathAndQuery, nil)
	if err != nil {
		return ForwardResult{}, fmt.Errorf("libei client: forward %s: %w", pathAndQuery, err)
	}
	if trace != "" {
		req.Header.Set(obs.TraceHeader, trace)
	}
	start := time.Now()
	resp, err := c.httpClient().Do(req)
	c.observe(start, err)
	if err != nil {
		return ForwardResult{}, fmt.Errorf("libei client: forward %s: %w", pathAndQuery, err)
	}
	defer resp.Body.Close()
	// Read one byte past the cap so an oversized body is an error, never a
	// silently truncated 200.
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxForwardBody+1))
	if err != nil {
		return ForwardResult{}, fmt.Errorf("libei client: forward %s: read body: %w", pathAndQuery, err)
	}
	if len(body) > maxForwardBody {
		return ForwardResult{}, fmt.Errorf("libei client: forward %s: body exceeds %d bytes", pathAndQuery, maxForwardBody)
	}
	return ForwardResult{
		Status:      resp.StatusCode,
		ContentType: resp.Header.Get("Content-Type"),
		Body:        body,
	}, nil
}

func (c *Client) get(ctx context.Context, path string, query url.Values, result any) error {
	u := c.BaseURL + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return fmt.Errorf("libei client: GET %s: %w", path, err)
	}
	start := time.Now()
	resp, err := c.httpClient().Do(req)
	c.observe(start, err)
	if err != nil {
		return fmt.Errorf("libei client: GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		// Non-2xx is an error regardless of body; surface the envelope's
		// message when the node sent one, the raw body otherwise.
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		msg := strings.TrimSpace(string(body))
		var env struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &env) == nil && env.Error != "" {
			msg = env.Error
		}
		return &StatusError{Path: path, Code: resp.StatusCode, Message: msg,
			TraceID: resp.Header.Get(obs.TraceHeader)}
	}
	var env struct {
		OK     bool            `json:"ok"`
		Result json.RawMessage `json:"result"`
		Error  string          `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		return fmt.Errorf("libei client: decode %s: %w", path, err)
	}
	if !env.OK {
		return fmt.Errorf("libei client: %s: %s (status %d)", path, env.Error, resp.StatusCode)
	}
	if result != nil {
		if err := json.Unmarshal(env.Result, result); err != nil {
			return fmt.Errorf("libei client: unmarshal %s: %w", path, err)
		}
	}
	return nil
}

// CallAlgorithm invokes /ei_algorithms/{scenario}/{name} and unmarshals the
// result into out (pass a pointer, or nil to discard).
func (c *Client) CallAlgorithm(scenario, name string, args url.Values, out any) error {
	return c.CallAlgorithmCtx(context.Background(), scenario, name, args, out)
}

// CallAlgorithmCtx is CallAlgorithm bounded by ctx.
func (c *Client) CallAlgorithmCtx(ctx context.Context, scenario, name string, args url.Values, out any) error {
	return c.get(ctx, "/ei_algorithms/"+url.PathEscape(scenario)+"/"+url.PathEscape(name), args, out)
}

// Infer runs one sample through the node's serving engine
// (/ei_algorithms/serving/infer): input is the flat sample vector,
// deadline ≤ 0 means no deadline. Overload surfaces as a status-429 error.
func (c *Client) Infer(model string, input []float32, deadline time.Duration) (InferResult, error) {
	return c.InferCtx(context.Background(), model, input, deadline)
}

// InferCtx is Infer bounded by ctx.
func (c *Client) InferCtx(ctx context.Context, model string, input []float32, deadline time.Duration) (InferResult, error) {
	return c.InferAs(ctx, "", model, input, deadline)
}

// InferAs is InferCtx submitting as the named tenant: the node admits and
// schedules the request under that tenant's class (token-bucket rate,
// priority tier, fair-share weight). An empty tenant rides the node's
// default class, as does a name the node has not declared.
func (c *Client) InferAs(ctx context.Context, tenant, model string, input []float32, deadline time.Duration) (InferResult, error) {
	parts := make([]string, len(input))
	for i, v := range input {
		parts[i] = fmt.Sprintf("%g", v)
	}
	q := url.Values{}
	q.Set("model", model)
	q.Set("input", strings.Join(parts, ","))
	if tenant != "" {
		q.Set("tenant", tenant)
	}
	if deadline > 0 {
		q.Set("deadline_ms", fmt.Sprintf("%g", float64(deadline)/float64(time.Millisecond)))
	}
	var out InferResult
	if err := c.CallAlgorithmCtx(ctx, "serving", "infer", q, &out); err != nil {
		return InferResult{}, err
	}
	return out, nil
}

// Realtime fetches the n most recent samples of a sensor.
func (c *Client) Realtime(sensorID string, n int) ([]DataSample, error) {
	return c.RealtimeCtx(context.Background(), sensorID, n)
}

// RealtimeCtx is Realtime bounded by ctx.
func (c *Client) RealtimeCtx(ctx context.Context, sensorID string, n int) ([]DataSample, error) {
	q := url.Values{}
	if n > 0 {
		q.Set("n", fmt.Sprint(n))
	}
	var out []DataSample
	if err := c.get(ctx, "/ei_data/realtime/"+url.PathEscape(sensorID), q, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Historical fetches samples in [start, end].
func (c *Client) Historical(sensorID string, start, end time.Time) ([]DataSample, error) {
	return c.HistoricalCtx(context.Background(), sensorID, start, end)
}

// HistoricalCtx is Historical bounded by ctx.
func (c *Client) HistoricalCtx(ctx context.Context, sensorID string, start, end time.Time) ([]DataSample, error) {
	q := url.Values{}
	q.Set("start", start.Format(time.RFC3339))
	q.Set("end", end.Format(time.RFC3339))
	var out []DataSample
	if err := c.get(ctx, "/ei_data/historical/"+url.PathEscape(sensorID), q, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Algorithms lists the node's registered scenario/name pairs.
func (c *Client) Algorithms() ([]string, error) {
	return c.AlgorithmsCtx(context.Background())
}

// AlgorithmsCtx is Algorithms bounded by ctx.
func (c *Client) AlgorithmsCtx(ctx context.Context) ([]string, error) {
	var out []string
	if err := c.get(ctx, "/ei_algorithms", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Models lists the node's loaded models with their modelled costs.
func (c *Client) Models() ([]ModelStatus, error) {
	return c.ModelsCtx(context.Background())
}

// ModelsCtx is Models bounded by ctx.
func (c *Client) ModelsCtx(ctx context.Context) ([]ModelStatus, error) {
	var out []ModelStatus
	if err := c.get(ctx, "/ei_models", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Status fetches node identity and capabilities.
func (c *Client) Status() (Status, error) {
	return c.StatusCtx(context.Background())
}

// StatusCtx is Status bounded by ctx.
func (c *Client) StatusCtx(ctx context.Context) (Status, error) {
	var out Status
	if err := c.get(ctx, "/ei_status", nil, &out); err != nil {
		return Status{}, err
	}
	return out, nil
}

// Resources fetches the node's computing resources: device capacity and
// live VCU allocations.
func (c *Client) Resources() (ResourceStatus, error) {
	return c.ResourcesCtx(context.Background())
}

// ResourcesCtx is Resources bounded by ctx.
func (c *Client) ResourcesCtx(ctx context.Context) (ResourceStatus, error) {
	var out ResourceStatus
	if err := c.get(ctx, "/ei_resources", nil, &out); err != nil {
		return ResourceStatus{}, err
	}
	return out, nil
}

// TraceCtx fetches one stored trace from the node (/ei_trace?id=). A
// 404 means the trace was unsampled or already evicted from the ring.
func (c *Client) TraceCtx(ctx context.Context, id string) (TraceDoc, error) {
	q := url.Values{}
	q.Set("id", id)
	var out TraceDoc
	if err := c.get(ctx, "/ei_trace", q, &out); err != nil {
		return TraceDoc{}, err
	}
	return out, nil
}

// Metrics fetches the node's serving counters (/ei_metrics).
func (c *Client) Metrics() (Metrics, error) {
	return c.MetricsCtx(context.Background())
}

// MetricsCtx is Metrics bounded by ctx.
func (c *Client) MetricsCtx(ctx context.Context) (Metrics, error) {
	var out Metrics
	if err := c.get(ctx, "/ei_metrics", nil, &out); err != nil {
		return Metrics{}, err
	}
	return out, nil
}

// ModelBlob downloads a serialized model — the edge–edge model-sharing
// path.
func (c *Client) ModelBlob(name string) ([]byte, error) {
	return c.ModelBlobCtx(context.Background(), name)
}

// ModelBlobCtx is ModelBlob bounded by ctx.
func (c *Client) ModelBlobCtx(ctx context.Context, name string) ([]byte, error) {
	u := c.BaseURL + "/ei_models/" + url.PathEscape(name) + "/blob"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, fmt.Errorf("libei client: blob %s: %w", name, err)
	}
	start := time.Now()
	resp, err := c.httpClient().Do(req)
	c.observe(start, err)
	if err != nil {
		return nil, fmt.Errorf("libei client: blob %s: %w", name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("libei client: blob %s: status %d: %s", name, resp.StatusCode, body)
	}
	return io.ReadAll(resp.Body)
}
