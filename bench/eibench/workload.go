package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"time"

	"openei/internal/nn"
	"openei/internal/plan"
	"openei/internal/tensor"
	"openei/internal/zoo"
)

const (
	// classes is the label count of every zoo model the benchmark serves.
	classes = 6
	// poolSize is the number of distinct inputs generated per model.
	poolSize = 512
	// weightSeed fixes the model weights: -seed moves only the inputs,
	// the mix and the arrival schedule.
	weightSeed = 20190707
)

// share is one entry of a model or tenant mix.
type share struct {
	name     string
	weight   float64 // shares of one mix sum to 1
	priority int     // tenants only: the admission class's priority tier
}

// workload is one traffic mix and the stack it runs against.
type workload struct {
	name    string
	why     string
	open    bool    // open loop: requests are sent on a schedule
	rateRPS float64 // open loop arrival rate
	clients int     // client goroutines = keep-alive connections, capped at nproc
	nodes   int     // nodes behind the gateway
	size    int     // image side; inputs are size×size floats
	backend plan.Backend
	limitMS float64 // latency limit behind within_limit_ratio
	models  []share
	tenants []share // admission classes of the serving config; empty means none
}

// workloads is the benchmark's fixed set; BENCHMARK.json names the same
// four and bench/README.md says why each exists.
var workloads = []workload{
	{
		name:    "tiny_closed",
		why:     "mlp@16x16, 2 closed-loop clients: the plan costs microseconds, so latency is batch wait, gateway, HTTP and libei; kernel changes must show nothing here",
		clients: 2, nodes: 1, size: 16, backend: plan.Float32, limitMS: 10,
		models: []share{{name: "mlp", weight: 1}},
	},
	{
		name:    "conv_closed",
		why:     "vgg-m@48x48 float32, 1 closed-loop client: direct 3x3 conv and packed GEMM carry the largest share of latency; transport is a small share",
		clients: 1, nodes: 1, size: 48, backend: plan.Float32, limitMS: 25,
		models: []share{{name: "vgg-m", weight: 1}},
	},
	{
		name:    "bigin_int8_closed",
		why:     "alexnet-m@64x64 int8, 1 closed-loop client: ~45 kB of CSV in the URL and int8 kernels; the CSV protocol and the quantized path are heaviest here",
		clients: 1, nodes: 1, size: 64, backend: plan.Int8, limitMS: 25,
		models: []share{{name: "alexnet-m", weight: 1}},
	},
	{
		name: "mixed_open",
		why:  "open loop, Poisson 200 req/s, 3 nodes, 4 models, 3 tenant priorities: the only workload where p2c routing, the priority scheduler, rnn and depthwise ops and arrival bursts matter",
		open: true, rateRPS: 200,
		clients: 2, nodes: 3, size: 16, backend: plan.Float32, limitMS: 15,
		models:  []share{{name: "mlp", weight: 0.5}, {name: "lenet", weight: 0.2}, {name: "fastgrnn-m", weight: 0.2}, {name: "mobilenet-m", weight: 0.1}},
		tenants: []share{{"safety", 0.2, 2}, {"default", 0.5, 1}, {"bulk", 0.3, 0}},
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// subSeed derives an independent stream seed from the run seed and a label.
func subSeed(seed int64, label string, n int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, label, n)
	return int64(h.Sum64())
}

// buildModels constructs the workload's models with the fixed weight seed.
func buildModels(w *workload) ([]*nn.Model, error) {
	models := make([]*nn.Model, len(w.models))
	for i, m := range w.models {
		built, err := zoo.Build(m.name, w.size, classes, rand.New(rand.NewSource(weightSeed)))
		if err != nil {
			return nil, err
		}
		models[i] = built
	}
	return models, nil
}

// pool is one model's generated inputs and their float32 reference classes.
type pool struct {
	inputs [][]float32
	ref    []int
}

// buildPool draws poolSize inputs for the model from the run seed and
// computes each one's reference class with a float32 plan of the model.
func buildPool(seed int64, m *nn.Model) (pool, error) {
	rng := rand.New(rand.NewSource(subSeed(seed, "pool/"+m.Name, 0)))
	dim := 1
	for _, d := range m.InputShape {
		dim *= d
	}
	p := pool{inputs: make([][]float32, poolSize), ref: make([]int, poolSize)}
	for i := range p.inputs {
		in := make([]float32, dim)
		for j := range in {
			in[j] = rng.Float32()
		}
		p.inputs[i] = in
	}
	clone, err := m.Clone()
	if err != nil {
		return pool{}, err
	}
	ref, err := plan.Compile(clone, plan.Options{Backend: plan.Float32})
	if err != nil {
		return pool{}, err
	}
	const batch = 8
	var cls []int
	var conf []float64
	xs := make([]*tensor.Tensor, 0, batch)
	for lo := 0; lo < poolSize; lo += batch {
		xs = xs[:0]
		for _, in := range p.inputs[lo:min(lo+batch, poolSize)] {
			x, err := tensor.NewFrom(in, m.InputShape...)
			if err != nil {
				return pool{}, err
			}
			xs = append(xs, x)
		}
		if cls, conf, err = ref.InferBatch(xs, cls, conf); err != nil {
			return pool{}, err
		}
		copy(p.ref[lo:], cls)
	}
	return p, nil
}

// pick is one request's seeded choices, as indexes into the workload's
// models and tenants and the model's pool. tenant is -1 when the
// workload declares none.
type pick struct {
	model, tenant, input int
}

// drawShare picks an index of mix in proportion to the weights.
func drawShare(rng *rand.Rand, mix []share) int {
	u := rng.Float64()
	for i := range mix[:len(mix)-1] {
		if u -= mix[i].weight; u < 0 {
			return i
		}
	}
	return len(mix) - 1
}

func drawPick(rng *rand.Rand, w *workload) pick {
	p := pick{model: drawShare(rng, w.models), tenant: -1}
	if len(w.tenants) > 0 {
		p.tenant = drawShare(rng, w.tenants)
	}
	p.input = rng.Intn(poolSize)
	return p
}

// arrival is one open-loop request: when it is due, counted from the
// start of its segment, and what it asks.
type arrival struct {
	due time.Duration
	pick
}

// schedule draws a segment's arrivals: a Poisson process at the
// workload's rate over span, conditioned on its expected count — that is,
// rate × span due times drawn uniformly over the span and sorted — so every
// seed offers the same load and only its bursts differ. With count > 0 it
// draws exactly count arrivals over the span they take at that rate.
func schedule(seed int64, segment int, w *workload, span time.Duration, count int) []arrival {
	rng := rand.New(rand.NewSource(subSeed(seed, "schedule", segment)))
	if count > 0 {
		span = time.Duration(float64(count) / w.rateRPS * float64(time.Second))
	} else {
		count = int(math.Round(w.rateRPS * span.Seconds()))
	}
	out := make([]arrival, count)
	for i := range out {
		out[i] = arrival{due: time.Duration(rng.Float64() * float64(span)), pick: drawPick(rng, w)}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}
