package libei

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"openei/internal/alem"
	"openei/internal/hardware"
	"openei/internal/nn"
	"openei/internal/obs"
	"openei/internal/pkgmgr"
	"openei/internal/serving"
	"openei/internal/tensor"
)

// servingNode builds a libei server whose engine fronts a parameter-free
// identity model (logits = input), so the expected class of a one-hot
// input is its hot index.
func servingNode(t *testing.T, cfg serving.Config) (*Server, *httptest.Server) {
	t.Helper()
	pkg, err := alem.PackageByName("eipkg")
	if err != nil {
		t.Fatal(err)
	}
	dev, err := hardware.ByName("rpi4")
	if err != nil {
		t.Fatal(err)
	}
	mgr := pkgmgr.New(pkg, dev)
	t.Cleanup(mgr.Close)
	ident := nn.MustModel("ident", []int{4}, []nn.LayerSpec{{Type: "flatten"}})
	if err := mgr.Load(ident, pkgmgr.LoadOptions{}); err != nil {
		t.Fatal(err)
	}
	s := NewServer("edge-1", nil, mgr)
	e := serving.NewEngine(mgr, cfg)
	t.Cleanup(e.Close)
	s.SetEngine(e)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func TestServingInferEndToEnd(t *testing.T) {
	_, ts := servingNode(t, serving.Config{})
	c := NewClient(ts.URL)
	res, err := c.Infer("ident", []float32{0, 0, 1, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != 2 {
		t.Errorf("class = %d, want 2", res.Class)
	}
	if res.BatchSize < 1 {
		t.Errorf("batch size = %d", res.BatchSize)
	}
	// The route is listed like any other algorithm.
	algos, err := c.Algorithms()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range algos {
		if a == "serving/infer" {
			found = true
		}
	}
	if !found {
		t.Errorf("serving/infer not in algorithm listing %v", algos)
	}
}

func TestServingInferValidation(t *testing.T) {
	_, ts := servingNode(t, serving.Config{})
	for _, tc := range []struct {
		name, url string
		status    int
	}{
		{"missing model", "/ei_algorithms/serving/infer?input=1,2", http.StatusBadRequest},
		{"missing input", "/ei_algorithms/serving/infer?model=ident", http.StatusBadRequest},
		{"bad float", "/ei_algorithms/serving/infer?model=ident&input=1,x", http.StatusBadRequest},
		{"wrong arity", "/ei_algorithms/serving/infer?model=ident&input=1,2", http.StatusBadRequest},
		{"unknown model", "/ei_algorithms/serving/infer?model=nope&input=1,2,3,4", http.StatusNotFound},
		{"bad deadline", "/ei_algorithms/serving/infer?model=ident&input=1,2,3,4&deadline_ms=-1", http.StatusBadRequest},
	} {
		resp, err := http.Get(ts.URL + tc.url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}
}

// verdictInferer answers every request with a fixed engine verdict.
type verdictInferer struct{ err error }

func (v verdictInferer) Infer(context.Context, string, *tensor.Tensor) (serving.Result, error) {
	return serving.Result{}, v.err
}

func (v verdictInferer) InferWithDeadline(string, *tensor.Tensor, time.Duration) (serving.Result, error) {
	return serving.Result{}, v.err
}

// TestServingOverloadMapsTo429: the engine's shed and expiry verdicts
// reach the client as HTTP 429 and 408 (and as the client's typed errors),
// however deep in a wrapped error they arrive.
func TestServingOverloadMapsTo429(t *testing.T) {
	s, ts := servingNode(t, serving.Config{})
	c := NewClient(ts.URL)
	for _, tc := range []struct {
		verdict error
		status  string
		want    error
	}{
		{fmt.Errorf("%w: model ident queue full (depth 64)", serving.ErrOverloaded), "status 429", ErrOverloaded},
		{fmt.Errorf("%w: model ident: waited 3ms", serving.ErrDeadline), "status 408", ErrDeadline},
	} {
		s.SetInferer(verdictInferer{tc.verdict})
		_, err := c.Infer("ident", []float32{0, 0, 1, 0}, 0)
		if err == nil || !strings.Contains(err.Error(), tc.status) || !errors.Is(err, tc.want) {
			t.Errorf("engine verdict %q surfaced as %v, want %s / %v", tc.verdict, err, tc.status, tc.want)
		}
	}
	s.SetInferer(nil)
	if _, err := c.Infer("ident", []float32{0, 0, 1, 0}, 0); err != nil {
		t.Errorf("infer through the real engine again: %v", err)
	}
}

// TestConcurrentTraceIDsAreTheRequestsOwn hammers one fully-sampled node
// from concurrent clients, each asking for its own model, and resolves
// every response's trace_id: the infer root stored under it must name that
// client's model. A handler that reads the ID off a trace buffer it has
// already released hands out whichever request recycled the buffer.
func TestConcurrentTraceIDsAreTheRequestsOwn(t *testing.T) {
	const (
		clients = 8
		rounds  = 100
	)
	s, ts := servingNode(t, serving.Config{})
	tr := obs.NewTracer(obs.Config{SampleRate: 1, Ring: clients * rounds, Source: "edge-1"})
	s.SetTracer(tr)
	c := NewClient(ts.URL)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		model := fmt.Sprintf("ident-%d", g)
		m := nn.MustModel(model, []int{4}, []nn.LayerSpec{{Type: "flatten"}})
		if err := s.Manager.Load(m, pkgmgr.LoadOptions{}); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				res, err := c.Infer(model, []float32{0, 1, 0, 0}, 0)
				if err != nil {
					t.Errorf("%s round %d: %v", model, i, err)
					return
				}
				id, ok := obs.ParseID(res.TraceID)
				spans, kept := tr.Trace(id)
				if !ok || !kept {
					t.Errorf("%s round %d: trace_id %q does not resolve", model, i, res.TraceID)
					return
				}
				var root obs.WireSpan
				for _, sp := range spans {
					if sp.Stage == obs.StageInfer {
						root = sp
					}
				}
				if root.Attrs["model"] != model {
					t.Errorf("%s round %d: trace_id %s names the trace of a request for %v", model, i, res.TraceID, root.Attrs["model"])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestClientCannotForgeTraceContext: trace context reaches the infer
// route only from the X-Openei-Trace header. A direct client that puts
// the reserved _trace key in its own query must get a fresh trace ID and
// the node's own sampling verdict (rate 0: nothing kept), not the
// forged ID and verdict.
func TestClientCannotForgeTraceContext(t *testing.T) {
	s, ts := servingNode(t, serving.Config{})
	tr := obs.NewTracer(obs.Config{SampleRate: 0, Source: "edge-1"})
	s.SetTracer(tr)
	const forgedID = "0000000000abcdef"
	url := ts.URL + "/ei_algorithms/serving/infer?model=ident&input=0,0,1,0&" +
		obs.TraceArg + "=" + forgedID + "-0000000000000007-1"
	for i := 0; i < 5; i++ {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		var env struct {
			OK     bool        `json:"ok"`
			Result InferResult `json:"result"`
		}
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil || !env.OK {
			t.Fatalf("request %d: ok=%v err=%v", i, env.OK, err)
		}
		if env.Result.TraceID == "" || env.Result.TraceID == forgedID {
			t.Fatalf("request %d: trace_id %q, want a fresh ID, not the client's forged one", i, env.Result.TraceID)
		}
	}
	if st := tr.Stats(); st.Started != 5 || st.Kept != 0 {
		t.Fatalf("tracer stats %+v, want 5 started and none kept at sample rate 0", st)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s, ts := servingNode(t, serving.Config{})
	c := NewClient(ts.URL)

	// Before any inference: engine attached, no per-model stats yet.
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.NodeID != "edge-1" || len(m.Serving) != 0 {
		t.Fatalf("fresh metrics = %+v", m)
	}

	if _, err := c.Infer("ident", []float32{1, 0, 0, 0}, 0); err != nil {
		t.Fatal(err)
	}
	m, err = c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Serving) != 1 || m.Serving[0].Model != "ident" {
		t.Fatalf("metrics after infer = %+v", m)
	}
	if m.Serving[0].Completed != 1 || m.Serving[0].Batches != 1 {
		t.Errorf("counters = %+v", m.Serving[0])
	}

	// The raw envelope shape: {"ok":true,"result":{"node_id":...,"serving":[...]}}.
	resp, err := http.Get(ts.URL + "/ei_metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env struct {
		OK     bool            `json:"ok"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if !env.OK || !strings.Contains(string(env.Result), `"serving"`) {
		t.Errorf("envelope = ok:%v result:%s", env.OK, env.Result)
	}
	_ = s
}

func TestMetricsWithoutEngine(t *testing.T) {
	_, ts := testNode(t) // no engine attached
	c := NewClient(ts.URL)
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Serving != nil {
		t.Errorf("serving stats without engine = %+v", m.Serving)
	}
}

func TestClientNon2xxIsError(t *testing.T) {
	// A server that returns an ok-looking envelope with a 500 status: the
	// client must surface an error rather than decode it as success.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = w.Write([]byte(`{"ok":true,"result":"bogus"}`))
	}))
	defer ts.Close()
	c := NewClient(ts.URL)
	if _, err := c.Status(); err == nil || !strings.Contains(err.Error(), "status 500") {
		t.Errorf("err = %v, want status 500 error", err)
	}
}
