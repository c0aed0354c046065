package serving

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"openei/internal/alem"
	"openei/internal/hardware"
	"openei/internal/nn"
	"openei/internal/pkgmgr"
	"openei/internal/tensor"
)

func testManager(t *testing.T) *pkgmgr.Manager {
	t.Helper()
	pkg, err := alem.PackageByName("eipkg")
	if err != nil {
		t.Fatal(err)
	}
	dev, err := hardware.ByName("jetson-tx2")
	if err != nil {
		t.Fatal(err)
	}
	m := pkgmgr.New(pkg, dev)
	t.Cleanup(m.Close)
	return m
}

// identModel is a parameter-free model whose logits are its input, so the
// predicted class of a one-hot sample is its hot index — ideal for checking
// that batched results fan back out to the right requests.
func identModel(classes int) *nn.Model {
	return nn.MustModel("ident", []int{classes}, []nn.LayerSpec{{Type: "flatten"}})
}

// denseModel is a small trained-shape MLP for timing-sensitive tests.
func denseModel(name string, in, hidden, classes int) *nn.Model {
	m := nn.MustModel(name, []int{in}, []nn.LayerSpec{
		{Type: "dense", In: in, Out: hidden},
		{Type: "relu"},
		{Type: "dense", In: hidden, Out: classes},
	})
	m.InitParams(rand.New(rand.NewSource(7)))
	return m
}

func oneHot(classes, hot int) *tensor.Tensor {
	data := make([]float32, classes)
	data[hot] = 1
	return tensor.MustFrom(data, classes)
}

func newTestEngine(t *testing.T, m *nn.Model, cfg Config) (*pkgmgr.Manager, *Engine) {
	t.Helper()
	mgr := testManager(t)
	if err := mgr.Load(m, pkgmgr.LoadOptions{}); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(mgr, cfg)
	t.Cleanup(e.Close)
	return mgr, e
}

// holdReplicas parks every replica of the model's pipeline at the
// pipeline's pre-execution hook, each holding one blocker request, so a
// test can build a backlog that no replica is free to take. The returned
// func frees the replicas and waits for the blockers' answers.
func holdReplicas(t *testing.T, e *Engine, model string, x *tensor.Tensor) (release func()) {
	t.Helper()
	p, err := e.pipelineFor(model)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	parked := make(chan struct{})
	p.hold = func() {
		select {
		case parked <- struct{}{}:
			<-gate
		case <-gate:
		}
	}
	var blockers sync.WaitGroup
	for i := 0; i < p.met.replicas; i++ {
		blockers.Add(1)
		go func() {
			defer blockers.Done()
			if _, err := e.Infer(context.Background(), model, x); err != nil {
				t.Errorf("blocker request: %v", err)
			}
		}()
		<-parked // one at a time, or a replica would batch two blockers
	}
	var once sync.Once
	release = func() {
		once.Do(func() {
			close(gate)
			blockers.Wait()
		})
	}
	t.Cleanup(release) // a failing test must not leave Close waiting on a parked replica
	return release
}

// enqueue submits one request straight to the model's pipeline — what
// Engine.infer does once admission has passed — so the test knows it is
// queued when this returns. The answer arrives on the request's resp.
func enqueue(t *testing.T, e *Engine, model string, x *tensor.Tensor, deadline time.Time) *request {
	t.Helper()
	p, err := e.pipelineFor(model)
	if err != nil {
		t.Fatal(err)
	}
	req := &request{x: x, tenant: e.tenants.resolve(""), deadline: deadline, enq: time.Now(), resp: make(chan response, 1)}
	if err := p.submit(req); err != nil {
		t.Fatal(err)
	}
	return req
}

func TestBatchCoalescing(t *testing.T) {
	const n = 8
	_, e := newTestEngine(t, identModel(n), Config{MaxBatch: n, Replicas: 1, QueueDepth: 32})
	// While the lone replica is busy, n requests pile up in the queue; the
	// moment it frees up it takes all of them as one batch.
	release := holdReplicas(t, e, "ident", oneHot(n, 0))
	reqs := make([]*request, n)
	for i := range reqs {
		reqs[i] = enqueue(t, e, "ident", oneHot(n, i), time.Time{})
	}
	release()
	for i, req := range reqs {
		r := <-req.resp
		if r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
		}
		if r.res.Class != i {
			t.Errorf("request %d classified as %d (batch fan-out misrouted)", i, r.res.Class)
		}
		if r.res.BatchSize != n {
			t.Errorf("request %d rode a batch of %d, want %d", i, r.res.BatchSize, n)
		}
	}
	st := e.Stats()
	if len(st) != 1 || st[0].Model != "ident" {
		t.Fatalf("stats = %+v", st)
	}
	if st[0].Kernels == "" {
		t.Error("model stats missing kernel dispatch (want e.g. \"packed-fma\" or \"scalar\")")
	}
	// Two batches: the blocker alone, then the n that queued behind it.
	if st[0].Batches != 2 || st[0].LargestBatch != n {
		t.Errorf("expected the blocker plus one batch of %d, got %d batches (largest %d)",
			n, st[0].Batches, st[0].LargestBatch)
	}
	if st[0].Completed != n+1 || st[0].AvgBatch != float64(n+1)/2 {
		t.Errorf("completed=%d avg_batch=%v, want %d and %v", st[0].Completed, st[0].AvgBatch, n+1, float64(n+1)/2)
	}
}

// TestIdleReplicaAnswersAtOnce pins the work-conserving half: with a free
// replica a lone request is a batch of one — nothing waits for company.
func TestIdleReplicaAnswersAtOnce(t *testing.T) {
	_, e := newTestEngine(t, identModel(4), Config{MaxBatch: 8, Replicas: 1})
	for i := 0; i < 3; i++ {
		res, err := e.Infer(context.Background(), "ident", oneHot(4, i))
		if err != nil {
			t.Fatal(err)
		}
		if res.Class != i || res.BatchSize != 1 {
			t.Errorf("request %d: class %d in a batch of %d, want class %d alone", i, res.Class, res.BatchSize, i)
		}
	}
	if st := e.Stats(); st[0].Batches != 3 || st[0].AvgBatch != 1 {
		t.Errorf("batches=%d avg_batch=%v, want 3 batches of 1", st[0].Batches, st[0].AvgBatch)
	}
}

func TestDeadlineExpiresInQueue(t *testing.T) {
	_, e := newTestEngine(t, identModel(4), Config{MaxBatch: 8, Replicas: 1, QueueDepth: 8})
	release := holdReplicas(t, e, "ident", oneHot(4, 0))
	req := enqueue(t, e, "ident", oneHot(4, 1), time.Now().Add(time.Millisecond))
	<-time.After(2 * time.Millisecond) // the budget lapses while the replica is busy
	release()
	if r := <-req.resp; !errors.Is(r.err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", r.err)
	}
	if st := e.Stats(); st[0].ExpiredDeadline != 1 || st[0].Completed != 1 {
		t.Errorf("expired_deadline=%d completed=%d, want 1 and 1 (the blocker)", st[0].ExpiredDeadline, st[0].Completed)
	}
}

func TestContextDeadlineHonored(t *testing.T) {
	_, e := newTestEngine(t, identModel(4), Config{MaxBatch: 8, Replicas: 1, QueueDepth: 8})
	release := holdReplicas(t, e, "ident", oneHot(4, 0))
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	// The replica stays busy, so the caller is let go by its own context.
	_, err := e.Infer(ctx, "ident", oneHot(4, 0))
	if !errors.Is(err, ErrDeadline) && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline error", err)
	}
	// The request it left behind is dropped at the gate, not executed.
	release()
	p, err := e.pipelineFor("ident")
	if err != nil {
		t.Fatal(err)
	}
	p.stop(true)
	if st := p.stats(); st.ExpiredDeadline != 1 || st.Completed != 1 {
		t.Errorf("expired_deadline=%d completed=%d, want 1 and 1 (the blocker)", st.ExpiredDeadline, st.Completed)
	}
}

func TestBackpressureRejectsWhenQueueFull(t *testing.T) {
	const depth = 3
	_, e := newTestEngine(t, identModel(4), Config{MaxBatch: 1, Replicas: 1, QueueDepth: depth})
	release := holdReplicas(t, e, "ident", oneHot(4, 0))
	// The replica is busy and depth requests fill the queue behind it: the
	// next one must bounce, and none of the admitted ones may.
	reqs := make([]*request, depth)
	for i := range reqs {
		reqs[i] = enqueue(t, e, "ident", oneHot(4, 1), time.Time{})
	}
	if _, err := e.Infer(context.Background(), "ident", oneHot(4, 2)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit to a full queue: err = %v, want ErrOverloaded", err)
	}
	release()
	for i, req := range reqs {
		if r := <-req.resp; r.err != nil {
			t.Errorf("admitted request %d failed: %v", i, r.err)
		}
	}
	st := e.Stats()
	if st[0].RejectedOverload != 1 || st[0].Completed != depth+1 {
		t.Errorf("rejected_overload=%d completed=%d, want 1 and %d", st[0].RejectedOverload, st[0].Completed, depth+1)
	}
}

func TestReplicaPoolRoutesResultsToRequests(t *testing.T) {
	const (
		classes  = 8
		replicas = 4
		total    = 200
	)
	_, e := newTestEngine(t, identModel(classes), Config{MaxBatch: 8, Replicas: replicas, QueueDepth: 256})
	// Every replica is held while the backlog builds, so on release they
	// drain it concurrently, in batches.
	release := holdReplicas(t, e, "ident", oneHot(classes, 0))
	reqs := make([]*request, total)
	for i := range reqs {
		reqs[i] = enqueue(t, e, "ident", oneHot(classes, i%classes), time.Time{})
	}
	release()
	for i, req := range reqs {
		r := <-req.resp
		if r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
		}
		if want := i % classes; r.res.Class != want {
			t.Errorf("request %d: class %d, want %d (cross-replica result mixup)", i, r.res.Class, want)
		}
	}
	st := e.Stats()
	if st[0].Completed != total+replicas {
		t.Errorf("completed = %d, want %d", st[0].Completed, total+replicas)
	}
	if st[0].LargestBatch != 8 || st[0].Batches >= total {
		t.Errorf("a %d-deep backlog was not coalesced: %d batches, largest %d", total, st[0].Batches, st[0].LargestBatch)
	}
}

func TestUnknownModelAndBadInput(t *testing.T) {
	_, e := newTestEngine(t, identModel(4), Config{})
	if _, err := e.Infer(context.Background(), "nope", oneHot(4, 0)); !errors.Is(err, pkgmgr.ErrUnknownModel) {
		t.Errorf("unknown model err = %v", err)
	}
	if _, err := e.Infer(context.Background(), "ident", tensor.New(5)); !errors.Is(err, ErrBadInput) {
		t.Errorf("bad shape err = %v", err)
	}
	// Batch-of-one and flat inputs are both accepted.
	if _, err := e.Infer(context.Background(), "ident", tensor.New(1, 4)); err != nil {
		t.Errorf("batch-of-one input: %v", err)
	}
	if _, err := e.Infer(context.Background(), "ident", tensor.New(4)); err != nil {
		t.Errorf("flat input: %v", err)
	}
}

func TestCloseRejectsAndIsIdempotent(t *testing.T) {
	mgr := testManager(t)
	if err := mgr.Load(identModel(4), pkgmgr.LoadOptions{}); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(mgr, Config{})
	if _, err := e.Infer(context.Background(), "ident", oneHot(4, 2)); err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close()
	if _, err := e.Infer(context.Background(), "ident", oneHot(4, 2)); !errors.Is(err, ErrClosed) {
		t.Errorf("infer after close: %v, want ErrClosed", err)
	}
}

func TestResetPicksUpReloadedWeights(t *testing.T) {
	mgr := testManager(t)
	// A 2→2 dense "router": with these weights, input [1,0] → class 0.
	m := nn.MustModel("router", []int{2}, []nn.LayerSpec{{Type: "dense", In: 2, Out: 2}})
	d := m.Layers[0].(*nn.Dense)
	copy(d.W.Data(), []float32{1, 0, 0, 1}) // identity
	if err := mgr.Load(m, pkgmgr.LoadOptions{}); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(mgr, Config{Replicas: 2})
	t.Cleanup(e.Close)

	x := tensor.MustFrom([]float32{1, 0}, 2)
	res, err := e.Infer(context.Background(), "router", x)
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != 0 {
		t.Fatalf("initial class = %d, want 0", res.Class)
	}

	// Reload the model with swapped rows: input [1,0] now maps to class 1.
	// Without Reset, the frozen replicas would keep serving the old weights.
	m2 := nn.MustModel("router", []int{2}, []nn.LayerSpec{{Type: "dense", In: 2, Out: 2}})
	copy(m2.Layers[0].(*nn.Dense).W.Data(), []float32{0, 1, 1, 0})
	if err := mgr.Load(m2, pkgmgr.LoadOptions{}); err != nil {
		t.Fatal(err)
	}
	res, err = e.Infer(context.Background(), "router", x)
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != 0 {
		t.Fatalf("pre-reset class = %d; replicas are snapshots, reload alone must not change them", res.Class)
	}
	e.Reset("router")
	res, err = e.Infer(context.Background(), "router", x)
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != 1 {
		t.Errorf("post-reset class = %d, want 1 (new weights)", res.Class)
	}
	e.Reset("never-served") // no-op
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.MaxBatch <= 0 || cfg.Replicas <= 0 || cfg.QueueDepth <= 0 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}

func TestQueueDepthSnapshot(t *testing.T) {
	_, e := newTestEngine(t, identModel(4), Config{QueueDepth: 32})
	if d, c := e.QueueDepth(); d != 0 || c != 0 {
		t.Fatalf("fresh engine depth/cap = %d/%d, want 0/0 (no pipelines yet)", d, c)
	}
	if _, err := e.Infer(context.Background(), "ident", oneHot(4, 1)); err != nil {
		t.Fatal(err)
	}
	d, c := e.QueueDepth()
	if c != 32 {
		t.Errorf("capacity = %d, want 32 after first pipeline", c)
	}
	if d != 0 {
		t.Errorf("depth = %d, want 0 at idle", d)
	}
}

func TestStatsQuantilesExposed(t *testing.T) {
	_, e := newTestEngine(t, identModel(4), Config{Replicas: 1, MaxBatch: 1})
	// Requests held behind a busy replica for a known millisecond give
	// every quantile a floor to be checked against.
	release := holdReplicas(t, e, "ident", oneHot(4, 0))
	reqs := make([]*request, 20)
	for i := range reqs {
		reqs[i] = enqueue(t, e, "ident", oneHot(4, i%4), time.Time{})
	}
	<-time.After(time.Millisecond)
	release()
	for _, req := range reqs {
		if r := <-req.resp; r.err != nil {
			t.Fatal(r.err)
		}
	}
	st := e.Stats()
	if len(st) != 1 {
		t.Fatalf("stats: %d models, want 1", len(st))
	}
	if st[0].P50MS < 1 || st[0].P95MS < st[0].P50MS || st[0].P99MS < st[0].P95MS {
		t.Fatalf("histogram quantiles not populated: %+v", st[0])
	}
}
