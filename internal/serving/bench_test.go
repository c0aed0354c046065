package serving

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"openei/internal/alem"
	"openei/internal/hardware"
	"openei/internal/obs"
	"openei/internal/pkgmgr"
	"openei/internal/plan"
	"openei/internal/tensor"
	"openei/internal/zoo"
)

// The saturation benchmarks of the serving engine: 64 closed-loop clients
// (each sends its next request only after the previous one is answered)
// pushing single samples through a zoo model, comparing the seed's
// per-request path (every request serialized through the package manager's
// single scheduler worker) against the engine's batching replica pool at
// its stock configuration.
//
//	go test ./internal/serving -run '^$' -bench 'Serving(64Unbatched|Saturated)' -benchtime 2s

const (
	benchClients = 64
	// benchModel is the zoo entry under test: the MNIST-class MLP, the
	// size of model the paper's smart-home/health scenarios actually run
	// at the edge.
	benchModel = "mlp"
)

// benchManager loads one quantized zoo model at size×size input and
// returns a random sample for it.
func benchManager(b *testing.B, model string, size int) (*pkgmgr.Manager, *tensor.Tensor) {
	b.Helper()
	pkg, err := alem.PackageByName("eipkg")
	if err != nil {
		b.Fatal(err)
	}
	dev, err := hardware.ByName("jetson-tx2")
	if err != nil {
		b.Fatal(err)
	}
	mgr := pkgmgr.New(pkg, dev)
	b.Cleanup(mgr.Close)
	const classes = 6
	rng := rand.New(rand.NewSource(1))
	m, err := zoo.Build(model, size, classes, rng)
	if err != nil {
		b.Fatal(err)
	}
	m.InitParams(rng)
	// Quantize like the demo server does on eipkg: the per-request path
	// then pays the int8 weight expansion on every call, while serving
	// replicas expand once at clone time.
	if err := mgr.Load(m, pkgmgr.LoadOptions{Quantize: true}); err != nil {
		b.Fatal(err)
	}
	sample := tensor.New(1, size, size)
	for i, d := 0, sample.Data(); i < len(d); i++ {
		d[i] = rng.Float32()
	}
	return mgr, sample
}

// runClients splits b.N requests over benchClients closed-loop goroutines
// (a shared counter hands out the work, so no feeder sits between the
// clients and the engine) and reports aggregate request throughput.
func runClients(b *testing.B, do func() error) {
	b.Helper()
	var wg sync.WaitGroup
	var next atomic.Int64
	errs := make(chan error, benchClients)
	b.ResetTimer()
	start := time.Now()
	for c := 0; c < benchClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				if err := do(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()
	select {
	case err := <-errs:
		b.Fatal(err)
	default:
	}
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "req/s")
}

// BenchmarkServing64Unbatched is the seed path: Manager.Infer, one request
// per forward pass, all serialized by the scheduler.
func BenchmarkServing64Unbatched(b *testing.B) {
	mgr, sample := benchManager(b, benchModel, 16)
	batched := sample.Clone().MustReshape(1, 1, 16, 16)
	runClients(b, func() error {
		_, err := mgr.Infer(benchModel, batched)
		return err
	})
}

// BenchmarkServingSaturated is the engine path under saturation at the
// stock Config: more clients than replicas, so requests coalesce while
// every replica is busy. Besides req/s it reports the mean batch size and
// the engine's own enqueue→response p50.
func BenchmarkServingSaturated(b *testing.B) {
	for _, tc := range []struct {
		model string
		size  int
	}{{"mlp", 16}, {"vgg-m", 32}} {
		b.Run(tc.model, func(b *testing.B) {
			mgr, sample := benchManager(b, tc.model, tc.size)
			e := NewEngine(mgr, Config{})
			b.Cleanup(e.Close)
			runClients(b, func() error {
				_, err := e.Infer(context.Background(), tc.model, sample)
				return err
			})
			st := e.Stats()[0]
			b.ReportMetric(st.AvgBatch, "avg_batch")
			b.ReportMetric(st.P50MS, "p50_ms")
		})
	}
}

// BenchmarkReplicaInferMLP is the zero-allocation acceptance benchmark:
// a frozen replica running micro-batches of the mlp zoo model must report
// 0 allocs/op once its arena is warm — activations come from the arena,
// scratch from pools, and the cost model from the cached workload.
func BenchmarkReplicaInferMLP(b *testing.B) {
	mgr, sample := benchManager(b, benchModel, 16)
	rep, err := mgr.NewReplica(benchModel)
	if err != nil {
		b.Fatal(err)
	}
	xs := make([]*tensor.Tensor, 8)
	for i := range xs {
		xs[i] = sample
	}
	if _, err := rep.InferBatch(xs); err != nil { // warm the arena
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rep.InferBatch(xs); err != nil {
			b.Fatal(err)
		}
	}
}

// The steady-state guarantee is load-bearing for GC-free serving, so it is
// asserted as a test too, not just visible in benchmark output. The int4
// backend must hold it too: its per-call weight unpack and effective-scale
// fills run entirely in plan scratch grown during warmup.
func TestReplicaInferenceSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts pkgmgr.LoadOptions
	}{
		{"int8", pkgmgr.LoadOptions{Quantize: true}},
		{"int4", pkgmgr.LoadOptions{Backend: plan.Int4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pkg, err := alem.PackageByName("eipkg")
			if err != nil {
				t.Fatal(err)
			}
			dev, err := hardware.ByName("jetson-tx2")
			if err != nil {
				t.Fatal(err)
			}
			mgr := pkgmgr.New(pkg, dev)
			t.Cleanup(mgr.Close)
			rng := rand.New(rand.NewSource(1))
			m, err := zoo.Build("mlp", 16, 6, rng)
			if err != nil {
				t.Fatal(err)
			}
			m.InitParams(rng)
			if err := mgr.Load(m, tc.opts); err != nil {
				t.Fatal(err)
			}
			rep, err := mgr.NewReplica("mlp")
			if err != nil {
				t.Fatal(err)
			}
			if want := string(plan.Int8); tc.name == "int8" && rep.Backend() != want {
				t.Fatalf("backend %q, want %q", rep.Backend(), want)
			}
			if want := string(plan.Int4); tc.name == "int4" && rep.Backend() != want {
				t.Fatalf("backend %q, want %q", rep.Backend(), want)
			}
			sample := tensor.New(1, 16, 16)
			xs := []*tensor.Tensor{sample, sample, sample, sample}
			// Warm past the lazy-calibration window so the scales freeze
			// and every subsequent batch is the pure serving path.
			for i := 0; i < 10; i++ {
				if _, err := rep.InferBatch(xs); err != nil {
					t.Fatal(err)
				}
			}
			avg := testing.AllocsPerRun(50, func() {
				if _, err := rep.InferBatch(xs); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Errorf("steady-state %s replica inference allocates %v objects/op, want 0", tc.name, avg)
			}
		})
	}
}

// BenchmarkTracedInfer measures the tracer's overhead on the engine's
// request path: the same batched infer loop with tracing off, and
// with every request traced at sample rate 1.0. The off case is the
// guard — compiled-in tracing must cost nothing when no trace buffer
// rides the context.
//
//	go test ./internal/serving -bench TracedInfer -benchtime 2s
func BenchmarkTracedInfer(b *testing.B) {
	run := func(b *testing.B, tr *obs.Tracer) {
		mgr, sample := benchManager(b, benchModel, 16)
		e := NewEngine(mgr, Config{MaxBatch: 16, Replicas: 4, QueueDepth: 1024})
		b.Cleanup(e.Close)
		runClients(b, func() error {
			ctx := context.Background()
			var tb *obs.TraceBuf
			if tr != nil {
				tb = tr.Begin(obs.TraceContext{})
				root := tr.NextID()
				tb.SetRoot(root)
				ctx = obs.NewContext(ctx, tb)
			}
			start := time.Now()
			_, err := e.Infer(ctx, benchModel, sample)
			if tr != nil {
				total := time.Since(start)
				tb.AddWithID(tb.Root(), obs.StageInfer, 0, start, total)
				tr.Finish(tb, err != nil, total)
			}
			return err
		})
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("sampled-1.0", func(b *testing.B) {
		run(b, obs.NewTracer(obs.Config{SampleRate: 1}))
	})
}
