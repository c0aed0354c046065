package main

import (
	"math/rand"
	"runtime"
	"sort"
	"time"

	"openei/internal/alem"
	"openei/internal/hardware"
	"openei/internal/nn"
	"openei/internal/pkgmgr"
	"openei/internal/plan"
	"openei/internal/tensor"
)

// Below the serving engine there is no public seam to wrap, so the
// pkgmgr, plan and tensor rows are timed direct calls with the workload's
// own inputs at the batch size the traced window actually served.

// directRowUnits names every row layerRows produces and its unit.
var directRowUnits = map[string]string{
	"pkgmgr.replica_us":     "us",
	"pkgmgr.self_us":        "us",
	"pkgmgr.load_ms":        "ms",
	"plan.exec_us":          "us",
	"plan.exec_us.float32":  "us",
	"plan.exec_us.int8":     "us",
	"plan.exec_us.int4":     "us",
	"plan.compile_ms":       "ms",
	"plan.allocs_per_exec":  "count",
	"plan.weight_bytes":     "bytes",
	"plan.flops":            "flop",
	"plan.gflops":           "GFLOP/s",
	"plan.int8_agree_ratio": "ratio",
	"tensor.gemm_gflops":    "GFLOP/s",
	"tensor.conv3x3_gflops": "GFLOP/s",
	"tensor.qgemm_gops":     "Gop/s",
}

// timer measures the median duration of one call. Calls faster than
// minChunk are timed in chunks so clock reads do not dominate.
type timer struct {
	budget time.Duration // per measurement, when count == 0
	count  int           // samples per measurement when > 0 (no clock-driven stop)
}

const minChunk = 20 * time.Microsecond

func (t timer) median(fn func()) time.Duration {
	m, _, _ := t.medianPair(fn, nil)
	return m
}

// medianPair times a and b in alternation, so that drift in the host's
// speed hits both alike, and returns each one's median duration and the
// median of a − b. A nil b is not run.
func (t timer) medianPair(a, b func()) (ma, mb, diff time.Duration) {
	chunk := func(fn func(), inner int) time.Duration {
		if fn == nil {
			return 0
		}
		t0 := time.Now()
		for i := 0; i < inner; i++ {
			fn()
		}
		return time.Since(t0) / time.Duration(inner)
	}
	chunk(a, 1) // warm
	chunk(b, 1)
	inner := 1
	if once := chunk(a, 1); once < minChunk {
		inner = int(minChunk/max(once, 1)) + 1
	}
	var as, bs, ds []time.Duration
	for start := time.Now(); ; {
		da, db := chunk(a, inner), chunk(b, inner)
		as, bs, ds = append(as, da), append(bs, db), append(ds, da-db)
		if t.count > 0 && len(as) == t.count || t.count <= 0 && len(as) >= 5 && time.Since(start) >= t.budget {
			break
		}
	}
	mid := func(xs []time.Duration) time.Duration {
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		return xs[len(xs)/2]
	}
	return mid(as), mid(bs), mid(ds)
}

// batchOf shapes pool inputs [lo, lo+batch) (wrapping) as sample tensors.
func batchOf(p pool, shape []int, lo, batch int) ([]*tensor.Tensor, error) {
	xs := make([]*tensor.Tensor, batch)
	for i := range xs {
		x, err := tensor.NewFrom(p.inputs[(lo+i)%poolSize], shape...)
		if err != nil {
			return nil, err
		}
		xs[i] = x
	}
	return xs, nil
}

// calibrationBatches is how many distinct batches warm a plan before it is
// timed: more than the int8 self-calibration window, so quantized plans
// are frozen.
const calibrationBatches = 12

// agreeInputs bounds the inputs compared for plan.int8_agree_ratio.
const agreeInputs = 128

// planRun is one compiled plan, warmed on distinct pool batches.
type planRun struct {
	p         *plan.Plan
	compileMS float64
	cls       []int
	conf      []float64
}

func compileWarm(m *nn.Model, backend plan.Backend, pl pool, batch int) (*planRun, error) {
	clone, err := m.Clone()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	p, err := plan.Compile(clone, plan.Options{Backend: backend})
	if err != nil {
		return nil, err
	}
	r := &planRun{p: p, compileMS: float64(time.Since(t0)) / 1e6}
	for b := 0; b < calibrationBatches; b++ {
		xs, err := batchOf(pl, m.InputShape, b*batch, batch)
		if err != nil {
			return nil, err
		}
		if err := r.exec(xs); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *planRun) exec(xs []*tensor.Tensor) error {
	var err error
	r.cls, r.conf, err = r.p.InferBatch(xs, r.cls, r.conf)
	return err
}

// agreement is the share of the pool's first limit inputs the plan
// classifies as the float32 reference does.
func (r *planRun) agreement(pl pool, shape []int, batch, limit int) (float64, error) {
	agree, total := 0, 0
	for lo := 0; lo+batch <= limit; lo += batch {
		xs, err := batchOf(pl, shape, lo, batch)
		if err != nil {
			return 0, err
		}
		if err := r.exec(xs); err != nil {
			return 0, err
		}
		for j, c := range r.cls[:batch] {
			total++
			if c == pl.ref[lo+j] {
				agree++
			}
		}
	}
	return float64(agree) / float64(total), nil
}

// layerRows times the pkgmgr, plan and tensor layers for the workload.
// With several models every per-request row is the request-share-weighted
// mean over the mix.
func layerRows(w *workload, models []*nn.Model, pools []pool, batch int, t timer) (map[string]float64, error) {
	rows := map[string]float64{}
	for i, m := range models {
		if err := modelRows(rows, w, m, pools[i], w.models[i].weight, batch, t); err != nil {
			return nil, err
		}
	}
	// Computed, not counted: the model's multiply-add count over the
	// measured time.
	rows["plan.gflops"] = rows["plan.flops"] * float64(batch) / (rows["plan.exec_us"] * 1e3)
	if err := tensorRows(rows, models, batch, t); err != nil {
		return nil, err
	}
	return rows, nil
}

// modelRows adds one model's pkgmgr and plan rows, weighted by its share
// of the workload's requests.
func modelRows(rows map[string]float64, w *workload, m *nn.Model, pl pool, wt float64, batch int, t timer) error {
	pkg, err := alem.PackageByName("eipkg")
	if err != nil {
		return err
	}
	dev, err := hardware.ByName(device)
	if err != nil {
		return err
	}
	xs, err := batchOf(pl, m.InputShape, 0, batch)
	if err != nil {
		return err
	}
	var failure error // of a timed call
	must := func(err error) {
		if err != nil && failure == nil {
			failure = err
		}
	}

	// pkgmgr: load + first replica as LoadModelBackend and the engine do;
	// the replica's batch call is timed below, beside its bare plan.
	var opts pkgmgr.LoadOptions
	if w.backend != plan.Float32 {
		opts.Backend = w.backend
	}
	t0 := time.Now()
	mgr := pkgmgr.New(pkg, dev)
	defer mgr.Close()
	if err := mgr.Load(m, opts); err != nil {
		return err
	}
	rep, err := mgr.NewReplicaBackend(m.Name, "")
	if err != nil {
		return err
	}
	rows["pkgmgr.load_ms"] += wt * float64(time.Since(t0)) / 1e6
	for b := 0; b < calibrationBatches; b++ {
		warm, err := batchOf(pl, m.InputShape, b*batch, batch)
		if err != nil {
			return err
		}
		if _, err := rep.InferBatch(warm); err != nil {
			return err
		}
	}

	// plan: the same model and batch on all three backends.
	for _, backend := range []plan.Backend{plan.Float32, plan.Int8, plan.Int4} {
		run, err := compileWarm(m, backend, pl, batch)
		if err != nil {
			return err
		}
		var exec time.Duration
		if backend != w.backend {
			exec = t.median(func() { must(run.exec(xs)) })
		} else {
			var replica, self time.Duration
			replica, exec, self = t.medianPair(
				func() { _, err := rep.InferBatch(xs); must(err) },
				func() { must(run.exec(xs)) })
			rows["pkgmgr.replica_us"] += wt * float64(replica) / 1e3
			rows["pkgmgr.self_us"] += wt * float64(self) / 1e3
			rows["plan.exec_us"] += wt * float64(exec) / 1e3
			rows["plan.compile_ms"] += wt * run.compileMS
			rows["plan.weight_bytes"] += wt * float64(run.p.WeightBytes())
			rows["plan.flops"] += wt * float64(run.p.FLOPs(1))
			const allocRuns = 20
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for n := 0; n < allocRuns; n++ {
				must(run.exec(xs))
			}
			runtime.ReadMemStats(&after)
			rows["plan.allocs_per_exec"] += wt * float64(after.Mallocs-before.Mallocs) / allocRuns
		}
		rows["plan.exec_us."+string(backend)] += wt * float64(exec) / 1e3
		if backend == plan.Int8 {
			limit := agreeInputs
			if t.count > 0 {
				limit = min(limit, max(t.count, batch))
			}
			ratio, err := run.agreement(pl, m.InputShape, batch, limit)
			if err != nil {
				return err
			}
			rows["plan.int8_agree_ratio"] += wt * ratio
		}
	}
	return failure
}

// tensorRows times the bare kernels at the shapes the workload's models
// stress most: the largest dense layer as a GEMM (float32 and int8) and
// the heaviest 3×3 convolution. Operation counts are computed from the
// shapes. A workload without such a layer reports 0.
func tensorRows(rows map[string]float64, models []*nn.Model, batch int, t timer) error {
	var k, n int
	var conv *tensor.Conv2DSpec
	convWork := func(s *tensor.Conv2DSpec) int {
		return s.OutC * s.OutH() * s.OutW() * s.InC * s.KH * s.KW
	}
	for _, m := range models {
		for _, spec := range m.Specs() {
			switch {
			case spec.Type == "dense" && spec.In*spec.Out > k*n:
				k, n = spec.In, spec.Out
			case spec.Type == "conv2d" && spec.Conv.KH == 3 && spec.Conv.KW == 3 &&
				(conv == nil || convWork(spec.Conv) > convWork(conv)):
				conv = spec.Conv
			}
		}
	}
	rng := rand.New(rand.NewSource(weightSeed))
	var failure error
	rows["tensor.gemm_gflops"], rows["tensor.qgemm_gops"], rows["tensor.conv3x3_gflops"] = 0, 0, 0
	if k > 0 {
		a, b, dst := tensor.New(batch, k), tensor.New(k, n), tensor.New(batch, n)
		a.Rand(rng, 1)
		b.Rand(rng, 1)
		ops := 2 * float64(batch) * float64(k) * float64(n)
		d := t.median(func() {
			if err := tensor.MatMulInto(dst, a, b); err != nil {
				failure = err
			}
		})
		rows["tensor.gemm_gflops"] = ops / float64(d)
		qa, qb := tensor.Quantize(a), tensor.Quantize(b)
		d = t.median(func() {
			if _, err := tensor.QMatMul(qa, qb); err != nil {
				failure = err
			}
		})
		rows["tensor.qgemm_gops"] = ops / float64(d)
	}
	if conv != nil {
		s := *conv
		x, wt := tensor.New(batch, s.InC, s.InH, s.InW), tensor.New(s.OutC, s.InC, s.KH, s.KW)
		dst := tensor.New(batch, s.OutC, s.OutH(), s.OutW())
		x.Rand(rng, 1)
		wt.Rand(rng, 1)
		d := t.median(func() {
			if err := tensor.Conv2DInto(dst, x, wt, nil, s); err != nil {
				failure = err
			}
		})
		rows["tensor.conv3x3_gflops"] = 2 * float64(batch) * float64(convWork(conv)) / float64(d)
	}
	return failure
}
