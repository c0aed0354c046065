package autopilot

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"openei/internal/alem"
	"openei/internal/hardware"
	"openei/internal/nn"
	"openei/internal/obs"
	"openei/internal/pkgmgr"
	"openei/internal/selector"
	"openei/internal/serving"
	"openei/internal/tensor"
)

func denseModel(name string, in, hidden, classes int) *nn.Model {
	m := nn.MustModel(name, []int{in}, []nn.LayerSpec{
		{Type: "dense", In: in, Out: hidden},
		{Type: "relu"},
		{Type: "dense", In: hidden, Out: classes},
	})
	m.InitParams(rand.New(rand.NewSource(7)))
	return m
}

// testEngine loads big/small tier models and returns a serving engine.
// Models named "{base}-int8" are loaded quantized, so their pipelines
// compile to the int8 execution backend — tier names imply backends.
func testEngine(t testing.TB, cfg serving.Config, models ...*nn.Model) *serving.Engine {
	t.Helper()
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
	for _, m := range models {
		quantize := strings.HasSuffix(m.Name, "-int8")
		if err := mgr.Load(m, pkgmgr.LoadOptions{Quantize: quantize}); err != nil {
			t.Fatal(err)
		}
	}
	e := serving.NewEngine(mgr, cfg)
	t.Cleanup(e.Close)
	return e
}

func twoTiers() []TierSpec {
	return []TierSpec{
		{Model: "tier-big", Accuracy: 0.95, Latency: 5 * time.Millisecond, Memory: 64 << 20},
		{Model: "tier-small", Accuracy: 0.90, Latency: time.Millisecond, Memory: 8 << 20, Quantized: true},
	}
}

func twoTierEngine(t *testing.T) *serving.Engine {
	return testEngine(t, serving.Config{Replicas: 1, MaxBatch: 4},
		denseModel("tier-big", 32, 64, 4), denseModel("tier-small", 32, 8, 4))
}

// bucketFor finds the snapshot bucket whose upper bound covers d by
// probing single-bucket snapshots through the exported Quantile.
func bucketFor(d time.Duration) int {
	var s obs.HistogramSnapshot
	for i := range s.Buckets {
		var probe obs.HistogramSnapshot
		probe.Buckets[i] = 1
		probe.Count = 1
		if probe.Quantile(1) >= d {
			return i
		}
	}
	return len(s.Buckets) - 1
}

// feed is a synthetic telemetry source: add(n, d) appends n observations
// at latency d to the cumulative snapshot the pilot will measure.
type feed struct {
	snap obs.HistogramSnapshot
}

func (f *feed) add(n uint64, d time.Duration) {
	f.snap.Buckets[bucketFor(d)] += n
	f.snap.Count += n
}

func (f *feed) measure(string) (obs.HistogramSnapshot, bool) { return f.snap, true }

// stubOffloader counts offloads and answers a fixed class.
type stubOffloader struct {
	calls atomic.Uint64
	fail  atomic.Bool
}

func (o *stubOffloader) Offload(_ context.Context, _ string, _ []float32, _ time.Duration) (int, float64, error) {
	o.calls.Add(1)
	if o.fail.Load() {
		return 0, 0, errors.New("stub cloud down")
	}
	return 3, 0.99, nil
}

func TestNewValidation(t *testing.T) {
	e := twoTierEngine(t)
	if _, err := New(e, "tier-big", twoTiers(), Policy{}, nil); !errors.Is(err, ErrBadPolicy) {
		t.Errorf("missing SLO: err = %v, want ErrBadPolicy", err)
	}
	pol := Policy{P95: 10 * time.Millisecond, AccuracyFloor: 0.99}
	if _, err := New(e, "tier-big", twoTiers(), pol, nil); !errors.Is(err, ErrNoTiers) {
		t.Errorf("impossible floor: err = %v, want ErrNoTiers", err)
	}
	bad := []TierSpec{{Model: "no-such-model", Accuracy: 1}}
	if _, err := New(e, "tier-big", bad, Policy{P95: 10 * time.Millisecond}, nil); err == nil {
		t.Error("unloaded tier model accepted")
	}
}

func TestNewInstallsTopTierRoute(t *testing.T) {
	e := twoTierEngine(t)
	// Offer the ladder in scrambled order; accuracy ordering must win.
	tiers := []TierSpec{twoTiers()[1], twoTiers()[0]}
	p, err := New(e, "tier-big", tiers, Policy{P95: 10 * time.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if got := e.Route("tier-big"); got != "tier-big" {
		t.Errorf("route = %q, want top tier tier-big", got)
	}
	st := p.Status()
	if st.Tier != "tier-big" || st.TierIndex != 0 || len(st.Tiers) != 2 || !st.Tiers[0].Active {
		t.Errorf("status = %+v", st)
	}
}

// TestHysteresis drives the full state machine on synthetic telemetry:
// miss → downgrade; still missing on the last tier → offload; sustained
// headroom → offload stops, then the tier upgrades; the dead band holds.
func TestHysteresis(t *testing.T) {
	e := twoTierEngine(t)
	off := &stubOffloader{}
	pol := Policy{
		P95: 10 * time.Millisecond, Interval: time.Hour, // loop never self-ticks
		DowngradeAfter: 2, UpgradeAfter: 2, UpgradeHeadroom: 0.5, MinSamples: 5,
	}
	p, err := New(e, "tier-big", twoTiers(), pol, off)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	f := &feed{}
	p.measure = f.measure
	now := time.Unix(1000, 0)
	tick := func(n uint64, d time.Duration) {
		f.add(n, d)
		now = now.Add(time.Second)
		p.Step(now)
	}

	// One bad tick is below DowngradeAfter=2: hold.
	tick(20, 50*time.Millisecond)
	if st := p.Status(); st.TierIndex != 0 {
		t.Fatalf("downgraded after one bad tick: %+v", st)
	}
	// Second consecutive miss: downgrade.
	tick(20, 50*time.Millisecond)
	if st := p.Status(); st.TierIndex != 1 || st.Downgrades != 1 {
		t.Fatalf("no downgrade after DowngradeAfter misses: %+v", st)
	}
	if got := e.Route("tier-big"); got != "tier-small" {
		t.Fatalf("route not swapped: %q", got)
	}
	// Still missing on the last tier → after two more bad ticks, offload.
	tick(20, 30*time.Millisecond)
	tick(20, 30*time.Millisecond)
	st := p.Status()
	if !st.Offloading {
		t.Fatalf("offload not engaged on last-tier misses: %+v", st)
	}
	// Dead band (between headroom 5ms and SLO 10ms): nothing moves.
	for i := 0; i < 5; i++ {
		tick(20, 7*time.Millisecond)
	}
	if st := p.Status(); !st.Offloading || st.TierIndex != 1 {
		t.Fatalf("dead band acted: %+v", st)
	}
	// Sustained headroom: first stop offloading…
	tick(20, time.Millisecond)
	tick(20, time.Millisecond)
	if st := p.Status(); st.Offloading {
		t.Fatalf("offload still on after recovery: %+v", st)
	}
	// …then climb back to the top tier.
	tick(20, time.Millisecond)
	tick(20, time.Millisecond)
	st = p.Status()
	if st.TierIndex != 0 || st.Upgrades != 1 {
		t.Fatalf("no upgrade after sustained headroom: %+v", st)
	}
	if got := e.Route("tier-big"); got != "tier-big" {
		t.Fatalf("route not restored: %q", got)
	}
	// History recorded every transition in order.
	reasons := []string{}
	for _, ev := range st.History {
		reasons = append(reasons, ev.Reason)
	}
	want := []string{"slo-miss", "offload-start", "offload-stop", "slo-headroom"}
	if len(reasons) != len(want) {
		t.Fatalf("history = %v, want %v", reasons, want)
	}
	for i := range want {
		if reasons[i] != want[i] {
			t.Fatalf("history = %v, want %v", reasons, want)
		}
	}
	if st.SLOAttainment >= 1 || st.SLOAttainment <= 0 {
		t.Errorf("slo_attainment = %v, want in (0,1)", st.SLOAttainment)
	}
}

// TestQuietTicksHealUpward: with no traffic at all, an idle node climbs
// back to its top tier.
func TestQuietTicksHealUpward(t *testing.T) {
	e := twoTierEngine(t)
	pol := Policy{P95: 10 * time.Millisecond, Interval: time.Hour,
		DowngradeAfter: 1, UpgradeAfter: 2, MinSamples: 5}
	p, err := New(e, "tier-big", twoTiers(), pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	f := &feed{}
	p.measure = f.measure
	now := time.Unix(0, 0)
	f.add(20, 50*time.Millisecond)
	now = now.Add(time.Second)
	p.Step(now)
	if p.Status().TierIndex != 1 {
		t.Fatal("no downgrade")
	}
	for i := 0; i < 2; i++ {
		now = now.Add(time.Second)
		p.Step(now) // no new samples: quiet ticks
	}
	if st := p.Status(); st.TierIndex != 0 {
		t.Fatalf("idle node did not heal to top tier: %+v", st)
	}
}

// TestOffloadFractionSplit: with offload forced on, the deterministic
// counter sends ~OffloadFraction of alias traffic to the cloud and the
// answers carry the cloud: marker.
func TestOffloadFractionSplit(t *testing.T) {
	e := twoTierEngine(t)
	off := &stubOffloader{}
	pol := Policy{P95: 10 * time.Millisecond, Interval: time.Hour, OffloadFraction: 0.5}
	p, err := New(e, "tier-big", twoTiers(), pol, off)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.offloading.Store(true)
	x := tensor.MustFrom(make([]float32, 32), 32)
	cloud := 0
	for i := 0; i < 20; i++ {
		res, err := p.Infer(context.Background(), "tier-big", x)
		if err != nil {
			t.Fatal(err)
		}
		if res.Model == "cloud:tier-big" {
			cloud++
			if res.Class != 3 {
				t.Fatalf("cloud answer class = %d", res.Class)
			}
		}
	}
	if cloud != 10 {
		t.Errorf("offloaded %d of 20, want exactly 10 at fraction 0.5", cloud)
	}
	if got := off.calls.Load(); got != 10 {
		t.Errorf("offloader calls = %d, want 10", got)
	}
	st := p.Status()
	if st.OffloadRatio < 0.45 || st.OffloadRatio > 0.55 {
		t.Errorf("offload_ratio = %v, want ~0.5", st.OffloadRatio)
	}
}

// TestOffloadFailureFallsBackLocal: a dead cloud must not become a new
// failure mode — marked requests fall back to the local tier.
func TestOffloadFailureFallsBackLocal(t *testing.T) {
	e := twoTierEngine(t)
	off := &stubOffloader{}
	off.fail.Store(true)
	pol := Policy{P95: 10 * time.Millisecond, Interval: time.Hour, OffloadFraction: 1}
	p, err := New(e, "tier-big", twoTiers(), pol, off)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.offloading.Store(true)
	x := tensor.MustFrom(make([]float32, 32), 32)
	for i := 0; i < 5; i++ {
		res, err := p.Infer(context.Background(), "tier-big", x)
		if err != nil {
			t.Fatalf("request failed despite local fallback: %v", err)
		}
		if res.Model != "tier-big" {
			t.Fatalf("served by %q, want local tier-big", res.Model)
		}
	}
	if st := p.Status(); st.OffloadErrors != 5 || st.Offloaded != 0 {
		t.Errorf("status = %+v, want 5 offload errors, 0 offloaded", st)
	}
}

// TestPassThroughOtherModels: non-alias models are untouched by offload.
func TestPassThroughOtherModels(t *testing.T) {
	e := twoTierEngine(t)
	off := &stubOffloader{}
	pol := Policy{P95: 10 * time.Millisecond, Interval: time.Hour, OffloadFraction: 1}
	p, err := New(e, "tier-big", twoTiers(), pol, off)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.offloading.Store(true)
	x := tensor.MustFrom(make([]float32, 32), 32)
	res, err := p.Infer(context.Background(), "tier-small", x)
	if err != nil {
		t.Fatal(err)
	}
	if res.Model != "tier-small" || off.calls.Load() != 0 {
		t.Errorf("pass-through touched the offloader: res=%+v calls=%d", res, off.calls.Load())
	}
}

func TestPlanTiers(t *testing.T) {
	mkChoice := func(name string, q bool, acc float64, lat time.Duration, mem int64) selector.Choice {
		return selector.Choice{ModelName: name, Quantized: q,
			ALEM: alem.ALEM{Accuracy: acc, Latency: lat, Memory: mem}}
	}
	front := []selector.Choice{
		mkChoice("lenet", false, 0.95, 8*time.Millisecond, 60<<20),
		mkChoice("lenet", true, 0.93, 4*time.Millisecond, 20<<20),
		mkChoice("bonsai", false, 0.70, time.Millisecond, 1<<20),   // below floor
		mkChoice("vgg", false, 0.97, 20*time.Millisecond, 500<<20), // over cap
		mkChoice("lenet", true, 0.93, 4*time.Millisecond, 20<<20),  // dup name
	}
	tiers := PlanTiers(front, nil, Policy{P95: time.Second, AccuracyFloor: 0.9, MemoryCap: 100 << 20})
	if len(tiers) != 2 {
		t.Fatalf("tiers = %+v, want 2", tiers)
	}
	if tiers[0].Model != "lenet" || tiers[1].Model != "lenet-int8" {
		t.Errorf("ladder order = %s, %s", tiers[0].Model, tiers[1].Model)
	}
	if !tiers[1].Quantized {
		t.Errorf("quantized flag lost: %+v", tiers[1])
	}
	if tiers[0].Backend != "float32" || tiers[1].Backend != "int8" {
		t.Errorf("tier backends = %q, %q, want float32, int8", tiers[0].Backend, tiers[1].Backend)
	}
}
