package serving

import (
	"context"
	"math/rand"
	"testing"

	"openei/internal/nn"
	"openei/internal/pkgmgr"
	"openei/internal/tensor"
)

// rnnServingModel is a small recurrent stack whose compiled plan supports
// early exit. Untrained logits hover near uniform confidence (1/classes),
// so a threshold just above it splits exits across steps and one well
// below it retires everything at step 1.
func rnnServingModel(name string, T, D, H, classes int) *nn.Model {
	m := nn.MustModel(name, []int{T * D}, []nn.LayerSpec{
		{Type: "fastgrnn", RNN: &nn.RNNSpec{T: T, D: D, H: H}},
		{Type: "dense", In: H, Out: classes},
	})
	m.InitParams(rand.New(rand.NewSource(31)))
	return m
}

func rnnSample(width int, seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float32, width)
	for i := range data {
		data[i] = rng.Float32()*2 - 1
	}
	return tensor.MustFrom(data, width)
}

// The serving engine surfaces early exit end to end: the knob applies to
// a live pipeline, results carry step counts, and the per-exit `exits`
// block shows up in the model stats with counts and quantiles.
func TestServingEarlyExitMetrics(t *testing.T) {
	const T = 6
	_, e := newTestEngine(t, rnnServingModel("rnn-serve", T, 4, 8, 3), Config{
		MaxBatch: 4, Replicas: 1, QueueDepth: 32,
	})

	// Pipeline not built yet: no threshold to report.
	if _, ok := e.ExitThresholdOf("rnn-serve"); ok {
		t.Fatal("ExitThresholdOf reported a pipeline that does not exist")
	}

	// SetExitThreshold builds the pipeline and reports capability.
	capable, err := e.SetExitThreshold("rnn-serve", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if !capable {
		t.Fatal("recurrent pipeline should support early exit")
	}
	if thr, ok := e.ExitThresholdOf("rnn-serve"); !ok || thr != 0.2 {
		t.Fatalf("ExitThresholdOf = (%v, %v), want (0.2, true)", thr, ok)
	}

	for i := 0; i < 10; i++ {
		res, err := e.Infer(context.Background(), "rnn-serve", rnnSample(T*4, int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalSteps != T {
			t.Fatalf("result TotalSteps = %d, want %d", res.TotalSteps, T)
		}
		if res.StepsUsed != 1 {
			t.Fatalf("threshold 0.2 over 3 classes: StepsUsed = %d, want 1", res.StepsUsed)
		}
	}

	st := e.Stats()
	if len(st) != 1 {
		t.Fatalf("stats = %+v", st)
	}
	s := st[0]
	if !s.EarlyExit || s.ExitThreshold != 0.2 || s.TotalSteps != T {
		t.Fatalf("exit block: early_exit=%v thr=%v total=%d, want true/0.2/%d", s.EarlyExit, s.ExitThreshold, s.TotalSteps, T)
	}
	if s.MeanStepsUsed != 1 {
		t.Fatalf("mean_steps_used = %v, want 1", s.MeanStepsUsed)
	}
	if len(s.Exits) != 1 || s.Exits[0].Step != 1 || s.Exits[0].Count != 10 {
		t.Fatalf("exits = %+v, want one head at step 1 with count 10", s.Exits)
	}
	if s.Exits[0].P95MS <= 0 {
		t.Fatalf("exit head p95 = %v, want > 0", s.Exits[0].P95MS)
	}

	// Disabling the knob sends every sample through the full window.
	if _, err := e.SetExitThreshold("rnn-serve", 0); err != nil {
		t.Fatal(err)
	}
	res, err := e.Infer(context.Background(), "rnn-serve", rnnSample(T*4, 99))
	if err != nil {
		t.Fatal(err)
	}
	if res.StepsUsed != T {
		t.Fatalf("disabled threshold: StepsUsed = %d, want %d", res.StepsUsed, T)
	}
	if thr, ok := e.ExitThresholdOf("rnn-serve"); !ok || thr != 0 {
		t.Fatalf("disabled ExitThresholdOf = (%v, %v), want (0, true)", thr, ok)
	}
}

// The recorded threshold survives pipeline rebuilds: SetReplicas swaps in
// a fresh replica pool, and the new pool inherits the override.
func TestExitThresholdSurvivesRebuild(t *testing.T) {
	const T = 5
	_, e := newTestEngine(t, rnnServingModel("rnn-rebuild", T, 3, 8, 3), Config{
		MaxBatch: 2, Replicas: 1, QueueDepth: 16,
	})
	if _, err := e.SetExitThreshold("rnn-rebuild", 0.25); err != nil {
		t.Fatal(err)
	}
	if err := e.SetReplicas("rnn-rebuild", 2); err != nil {
		t.Fatal(err)
	}
	if thr, ok := e.ExitThresholdOf("rnn-rebuild"); !ok || thr != 0.25 {
		t.Fatalf("threshold after rebuild = (%v, %v), want (0.25, true)", thr, ok)
	}
	res, err := e.Infer(context.Background(), "rnn-rebuild", rnnSample(T*3, 7))
	if err != nil {
		t.Fatal(err)
	}
	if res.StepsUsed != 1 {
		t.Fatalf("rebuilt pool StepsUsed = %d, want 1 (knob lost in rebuild)", res.StepsUsed)
	}
}

// Engine-wide Config.ExitThreshold seeds every capable pipeline without
// any explicit SetExitThreshold call, and feed-forward pipelines ignore
// it entirely.
func TestConfigExitThresholdSeedsPipelines(t *testing.T) {
	const T = 4
	mgr, e := newTestEngine(t, rnnServingModel("rnn-cfg", T, 3, 8, 3), Config{
		MaxBatch: 2, Replicas: 1, QueueDepth: 16,
		ExitThreshold: 0.3,
	})
	if err := mgr.Load(denseModel("mlp-cfg", 6, 8, 3), pkgmgr.LoadOptions{}); err != nil {
		t.Fatal(err)
	}
	res, err := e.Infer(context.Background(), "rnn-cfg", rnnSample(T*3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.StepsUsed != 1 {
		t.Fatalf("config-seeded threshold: StepsUsed = %d, want 1", res.StepsUsed)
	}
	res, err = e.Infer(context.Background(), "mlp-cfg", rnnSample(6, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.StepsUsed != 0 || res.TotalSteps != 0 {
		t.Fatalf("feed-forward result carries steps: %d/%d, want 0/0", res.StepsUsed, res.TotalSteps)
	}
	if capable, err := e.SetExitThreshold("mlp-cfg", 0.5); err != nil || capable {
		t.Fatalf("feed-forward SetExitThreshold = (%v, %v), want (false, nil)", capable, err)
	}
	for _, s := range e.Stats() {
		if s.Model == "mlp-cfg" && s.EarlyExit {
			t.Fatal("feed-forward pipeline advertises early exit")
		}
	}
}
