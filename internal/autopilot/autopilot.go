// Package autopilot closes the loop the paper leaves open: OpenEI's model
// selector (Equation 1) picks the best (model, package) combination for a
// node's ALEM constraints, but it runs once, offline. The autopilot runs
// the same selection *during* traffic: it maintains online ALEM profiles
// per model tier from live serving telemetry, evaluates an
// operator-declared SLO every control tick, and actuates —
//
//   - Tier switching: when the live p95 latency misses the SLO, the
//     serving engine's public model name is hot-swapped
//     (serving.Engine.Swap, drain-and-replace, zero dropped requests) to
//     the next tier of the ladder: a cheaper Pareto-frontier variant
//     (quantized, or a smaller architecture) that still satisfies the
//     operator's accuracy floor and memory cap.
//   - Exit-threshold tuning: when the active tier's compiled plan
//     supports early exit, the confidence threshold is a *continuous*
//     knob between ladder rungs. Under SLO pressure the pilot first
//     lowers the threshold (samples retire after fewer recurrent steps)
//     down to a policy floor before paying a tier swap; with headroom it
//     restores the threshold back to its resting value before climbing
//     the ladder. Each nudge is recorded in the switch history.
//   - Edge→cloud offload: when even the cheapest local tier misses the
//     SLO, a fraction of requests is marked for offload and executed by a
//     cloud-backed fallback (an Offloader, typically a libei client
//     pointed at an openei-cloud serving endpoint); local overload
//     rejections spill to the cloud instead of surfacing as 429s.
//   - Recovery with hysteresis: the node upgrades back — first dropping
//     offload, then climbing the tier ladder — only after UpgradeAfter
//     consecutive ticks comfortably inside the SLO (p95 ≤
//     UpgradeHeadroom × target), so a borderline node does not flap.
//
// Current tier, switch history, offload ratio, and SLO attainment are
// snapshotted by Status for the node's /ei_metrics.
package autopilot

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"openei/internal/obs"
	"openei/internal/serving"
	"openei/internal/tensor"
)

// Pilot errors.
var (
	// ErrNoTiers is returned when no tier satisfies the policy's accuracy
	// floor and memory cap.
	ErrNoTiers = errors.New("autopilot: no eligible tiers")
	// ErrBadPolicy is returned for invalid policies.
	ErrBadPolicy = errors.New("autopilot: bad policy")
)

// TierSpec is one rung of the tier ladder: a loaded model variant and its
// profiled ALEM coordinates. Ladders are ordered best-accuracy-first;
// PlanTiers builds one from a selector.Pareto frontier.
type TierSpec struct {
	// Model is the loaded model name serving this tier.
	Model string `json:"model"`
	// Accuracy is the tier's profiled accuracy, checked against the
	// policy's floor.
	Accuracy float64 `json:"accuracy"`
	// Latency is the profiled (offline cost-model) per-inference latency;
	// informational — the control loop acts on *measured* quantiles.
	Latency time.Duration `json:"-"`
	// Memory is the profiled footprint in bytes, checked against the
	// policy's cap.
	Memory int64 `json:"memory_bytes"`
	// Quantized marks int8 variants.
	Quantized bool `json:"quantized"`
	// Backend is the execution backend this tier's serving replicas
	// compile to ("float32" or "int8"): a "{model}-int8" rung is a
	// different kernel set, not a relabeled float model. Informational
	// here (the serving engine derives the backend from how the tier's
	// model was loaded); empty means float32.
	Backend string `json:"backend,omitempty"`
}

// Policy is the operator-declared SLO plus the control-loop tuning knobs.
// The zero value of every field but P95 means the documented default.
type Policy struct {
	// P95 is the SLO: the tail latency (enqueue→response, measured per
	// control tick) the node must keep the public model under. Required.
	P95 time.Duration
	// AccuracyFloor excludes tiers profiled below it (default 0: none).
	AccuracyFloor float64
	// MemoryCap excludes tiers whose profiled footprint exceeds it
	// (default 0: none).
	MemoryCap int64
	// Interval is the control tick period (default 500ms).
	Interval time.Duration
	// DowngradeAfter is how many consecutive SLO-missing ticks trigger a
	// downgrade (default 1: react within one interval).
	DowngradeAfter int
	// UpgradeAfter is how many consecutive comfortable ticks trigger an
	// upgrade — the hysteresis that prevents flapping (default 3).
	UpgradeAfter int
	// UpgradeHeadroom scales the SLO for the "comfortable" test: a tick
	// counts toward upgrading only when p95 ≤ UpgradeHeadroom × P95
	// (default 0.6). Ticks between the two thresholds are a dead band.
	UpgradeHeadroom float64
	// MinSamples is the fewest completed requests a tick needs to judge
	// the SLO; quieter ticks count as comfortable — an idle node heals
	// toward its top tier (default 8).
	MinSamples int
	// OffloadFraction is the share of requests sent to the cloud while
	// offload is active (default 0.5). Local overload rejections spill to
	// the cloud regardless.
	OffloadFraction float64
	// HistorySize bounds the switch-history ring in Status (default 32).
	HistorySize int

	// ExitThreshold enables the continuous early-exit knob for tiers
	// whose compiled plans support it: a capable tier rests at this
	// confidence threshold, and the pilot tunes the threshold *between*
	// ladder rungs — lowering it under SLO pressure (samples exit after
	// fewer recurrent steps) before paying a tier swap, and restoring it
	// before climbing back up. Must be in (0, 1]; 0 (the default)
	// disables the knob and leaves each pipeline's own threshold alone.
	ExitThreshold float64
	// ExitThresholdFloor bounds how far down the knob may be driven
	// (default 0.5). Once the active tier sits at the floor, the next
	// sustained SLO miss downgrades the tier instead.
	ExitThresholdFloor float64
	// ExitThresholdStep is the per-actuation knob adjustment
	// (default 0.1).
	ExitThresholdStep float64
}

func (p Policy) withDefaults() Policy {
	if p.Interval <= 0 {
		p.Interval = 500 * time.Millisecond
	}
	if p.DowngradeAfter <= 0 {
		p.DowngradeAfter = 1
	}
	if p.UpgradeAfter <= 0 {
		p.UpgradeAfter = 3
	}
	if p.UpgradeHeadroom <= 0 || p.UpgradeHeadroom > 1 {
		p.UpgradeHeadroom = 0.6
	}
	if p.MinSamples <= 0 {
		p.MinSamples = 8
	}
	if p.OffloadFraction <= 0 || p.OffloadFraction > 1 {
		p.OffloadFraction = 0.5
	}
	if p.HistorySize <= 0 {
		p.HistorySize = 32
	}
	if p.ExitThreshold > 1 {
		p.ExitThreshold = 1
	}
	if p.ExitThreshold > 0 {
		if p.ExitThresholdStep <= 0 {
			p.ExitThresholdStep = 0.1
		}
		if p.ExitThresholdFloor <= 0 {
			p.ExitThresholdFloor = 0.5
		}
		if p.ExitThresholdFloor > p.ExitThreshold {
			p.ExitThresholdFloor = p.ExitThreshold
		}
	}
	return p
}

// Offloader executes one request on the fallback (cloud) side. input is
// the sample flattened to a vector; deadline ≤ 0 means none. The libei
// package provides the HTTP-backed implementation (RemoteOffloader).
type Offloader interface {
	Offload(ctx context.Context, model string, input []float32, deadline time.Duration) (class int, confidence float64, err error)
}

// Pilot is one node's SLO control loop over a serving engine. Create with
// New, optionally Start the periodic loop (tests drive Step directly),
// route inference through Infer/InferWithDeadline (it implements libei's
// Inferer), and Close on shutdown.
type Pilot struct {
	eng   *serving.Engine
	alias string
	tiers []TierSpec
	pol   Policy
	off   Offloader

	// mu guards the control state (tier index, hysteresis counters,
	// history); the serving fast path reads only offloading/counters.
	mu        sync.Mutex
	cur       int
	goodTicks int
	badTicks  int
	prev      map[string]obs.HistogramSnapshot
	history   []SwitchEvent
	lastP95   time.Duration

	// exitThr is the knob's current value on the active tier;
	// exitCapable records whether the active tier's pipeline accepted it
	// (false when the policy knob is disabled or the tier's plan has no
	// exit graph). Both are re-armed on every tier switch.
	exitThr     float64
	exitCapable bool

	offloading atomic.Bool
	offSeq     atomic.Uint64

	ticks       atomic.Uint64
	ticksOver   atomic.Uint64
	downgrades  atomic.Uint64
	upgrades    atomic.Uint64
	localServed atomic.Uint64
	offloaded   atomic.Uint64
	offloadErrs atomic.Uint64
	spilled     atomic.Uint64

	startOnce sync.Once
	closeOnce sync.Once
	started   atomic.Bool
	stop      chan struct{}
	done      chan struct{}

	// measure reads a model's cumulative latency distribution; it is
	// eng.LatencyOf outside tests (which substitute synthetic snapshots
	// to drive the state machine deterministically).
	measure func(model string) (obs.HistogramSnapshot, bool)
}

// New validates the policy, filters the ladder to tiers satisfying the
// accuracy floor and memory cap (ordered accuracy-descending), installs
// the top tier as the alias's serving route, and returns the pilot. Every
// tier's model must be loaded in the engine's manager — each rung is
// warmed once so a later emergency switch cannot fail on an unloadable
// model. off may be nil (no offload rung; the ladder bottoms out at its
// cheapest local tier).
func New(eng *serving.Engine, alias string, tiers []TierSpec, pol Policy, off Offloader) (*Pilot, error) {
	if eng == nil || alias == "" {
		return nil, fmt.Errorf("%w: engine and alias are required", ErrBadPolicy)
	}
	if pol.P95 <= 0 {
		return nil, fmt.Errorf("%w: P95 SLO is required", ErrBadPolicy)
	}
	pol = pol.withDefaults()
	ladder := make([]TierSpec, 0, len(tiers))
	for _, t := range tiers {
		if t.Model == "" || t.Accuracy < pol.AccuracyFloor {
			continue
		}
		if pol.MemoryCap > 0 && t.Memory > pol.MemoryCap {
			continue
		}
		ladder = append(ladder, t)
	}
	if len(ladder) == 0 {
		return nil, fmt.Errorf("%w: %d offered, floor %.3f, cap %d bytes",
			ErrNoTiers, len(tiers), pol.AccuracyFloor, pol.MemoryCap)
	}
	sort.SliceStable(ladder, func(i, j int) bool {
		if ladder[i].Accuracy != ladder[j].Accuracy {
			return ladder[i].Accuracy > ladder[j].Accuracy
		}
		return ladder[i].Latency < ladder[j].Latency
	})
	// Walk the ladder bottom-up so every rung is proven swappable and the
	// loop ends with the top tier active.
	for i := len(ladder) - 1; i >= 0; i-- {
		if err := eng.Swap(alias, ladder[i].Model); err != nil {
			return nil, fmt.Errorf("autopilot: tier %d (%s): %w", i, ladder[i].Model, err)
		}
	}
	p := &Pilot{
		eng: eng, alias: alias, tiers: ladder, pol: pol, off: off,
		prev:    map[string]obs.HistogramSnapshot{},
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		measure: eng.LatencyOf,
	}
	p.armExit(ladder[0].Model)
	return p, nil
}

// armExit resets the early-exit knob for a newly active tier: a capable
// tier starts at the policy's resting threshold. Called under p.mu
// (or from New, before the control loop exists).
func (p *Pilot) armExit(model string) {
	p.exitCapable = false
	if p.pol.ExitThreshold <= 0 {
		return
	}
	p.exitThr = p.pol.ExitThreshold
	capable, err := p.eng.SetExitThreshold(model, p.exitThr)
	p.exitCapable = capable && err == nil
}

// nudgeExit moves the early-exit knob by delta on the active tier,
// clamped to [ExitThresholdFloor, ExitThreshold], and records the
// actuation in the switch history. Called under p.mu.
func (p *Pilot) nudgeExit(delta float64, now time.Time, p95 time.Duration, reason string) {
	// Snap to the exact bounds so repeated float steps terminate: the
	// knob must land *on* the floor (or resting value), not drift an ulp
	// above it and nudge forever.
	next := p.exitThr + delta
	if next < p.pol.ExitThresholdFloor+1e-9 {
		next = p.pol.ExitThresholdFloor
	}
	if next > p.pol.ExitThreshold-1e-9 {
		next = p.pol.ExitThreshold
	}
	model := p.tiers[p.cur].Model
	if _, err := p.eng.SetExitThreshold(model, next); err != nil {
		p.record(now, model, model, "exit-threshold-error: "+err.Error(), p95)
		return
	}
	p.exitThr = next
	p.record(now, model, model, fmt.Sprintf("%s: %.2f", reason, next), p95)
}

// Alias returns the public model name under control.
func (p *Pilot) Alias() string { return p.alias }

// Policy returns the effective (defaulted) policy.
func (p *Pilot) Policy() Policy { return p.pol }

// Start runs the control loop every Policy.Interval until Close. Calling
// Start more than once is a no-op.
func (p *Pilot) Start() {
	p.startOnce.Do(func() {
		p.started.Store(true)
		go func() {
			defer close(p.done)
			t := time.NewTicker(p.pol.Interval)
			defer t.Stop()
			for {
				select {
				case <-p.stop:
					return
				case now := <-t.C:
					p.Step(now)
				}
			}
		}()
	})
}

// Close stops the control loop; the serving engine is left on whatever
// tier was active. Idempotent.
func (p *Pilot) Close() {
	p.closeOnce.Do(func() { close(p.stop) })
	if p.started.Load() {
		<-p.done
	}
}

// Step runs one control evaluation at the given time: measure the active
// tier's p95 over the interval since the previous Step, then downgrade,
// enter/leave offload, or upgrade per the hysteresis rules. Exported so
// tests and custom cadences can drive the loop deterministically.
func (p *Pilot) Step(now time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ticks.Add(1)
	model := p.tiers[p.cur].Model
	snap, ok := p.measure(model)
	if !ok {
		snap = obs.HistogramSnapshot{}
	}
	delta := snap.Sub(p.prev[model])
	p.prev[model] = snap

	quiet := delta.Count < uint64(p.pol.MinSamples)
	p95 := delta.Quantile(0.95)
	p.lastP95 = p95
	switch {
	case !quiet && p95 > p.pol.P95:
		p.ticksOver.Add(1)
		p.goodTicks = 0
		p.badTicks++
		if p.badTicks < p.pol.DowngradeAfter {
			return
		}
		p.badTicks = 0
		// The exit threshold is a continuous knob between ladder rungs:
		// spend its range before paying a tier swap.
		if p.exitCapable && p.exitThr > p.pol.ExitThresholdFloor {
			p.nudgeExit(-p.pol.ExitThresholdStep, now, p95, "exit-threshold-down")
		} else if p.cur < len(p.tiers)-1 {
			p.switchTo(p.cur+1, now, p95, "slo-miss")
		} else if p.off != nil && !p.offloading.Load() {
			p.offloading.Store(true)
			p.record(now, model, "cloud", "offload-start", p95)
		}
	case quiet || p95 <= time.Duration(p.pol.UpgradeHeadroom*float64(p.pol.P95)):
		p.badTicks = 0
		p.goodTicks++
		if p.goodTicks < p.pol.UpgradeAfter {
			return
		}
		p.goodTicks = 0
		if p.offloading.Load() {
			p.offloading.Store(false)
			p.record(now, "cloud", model, "offload-stop", p95)
		} else if p.exitCapable && p.exitThr < p.pol.ExitThreshold {
			// Restore the knob to its resting value before climbing.
			p.nudgeExit(p.pol.ExitThresholdStep, now, p95, "exit-threshold-up")
		} else if p.cur > 0 {
			p.switchTo(p.cur-1, now, p95, "slo-headroom")
		}
	default:
		// Dead band between the miss and headroom thresholds: hold the
		// current tier, restart both streaks.
		p.badTicks = 0
		p.goodTicks = 0
	}
}

// switchTo actuates a tier change under p.mu.
func (p *Pilot) switchTo(to int, now time.Time, p95 time.Duration, reason string) {
	from := p.tiers[p.cur].Model
	target := p.tiers[to].Model
	if err := p.eng.Swap(p.alias, target); err != nil {
		p.record(now, from, target, "swap-error: "+err.Error(), p95)
		return
	}
	if to > p.cur {
		p.downgrades.Add(1)
	} else {
		p.upgrades.Add(1)
	}
	p.cur = to
	// The new tier starts at the resting exit threshold (if capable): a
	// cheaper rung does not inherit the pressure-lowered knob of the one
	// it replaced.
	p.armExit(target)
	// The target pipeline may be freshly built; rebase its interval so the
	// next Step judges only post-switch traffic.
	if snap, ok := p.measure(target); ok {
		p.prev[target] = snap
	} else {
		delete(p.prev, target)
	}
	p.record(now, from, target, reason, p95)
}

// record appends to the bounded switch-history ring under p.mu.
func (p *Pilot) record(now time.Time, from, to, reason string, p95 time.Duration) {
	ev := SwitchEvent{At: now, From: from, To: to, Reason: reason,
		P95MS: float64(p95) / float64(time.Millisecond)}
	p.history = append(p.history, ev)
	if over := len(p.history) - p.pol.HistorySize; over > 0 {
		p.history = append(p.history[:0], p.history[over:]...)
	}
}

// Infer serves one request for the controlled alias: locally on the
// active tier, or — while offload is active — on the cloud fallback for
// the configured fraction of traffic, with local overload spilling to the
// cloud instead of failing. Requests for other models pass through to the
// engine untouched. Together with InferWithDeadline this implements the
// libei server's Inferer hook.
func (p *Pilot) Infer(ctx context.Context, model string, x *tensor.Tensor) (serving.Result, error) {
	return p.infer(ctx, model, x, 0)
}

// InferWithDeadline is Infer with the serving engine's queue-deadline
// semantics; the deadline rides along on offloaded requests.
func (p *Pilot) InferWithDeadline(model string, x *tensor.Tensor, d time.Duration) (serving.Result, error) {
	return p.infer(context.Background(), model, x, d)
}

func (p *Pilot) infer(ctx context.Context, model string, x *tensor.Tensor, d time.Duration) (serving.Result, error) {
	offloadable := model == p.alias && p.off != nil && p.offloading.Load()
	if offloadable && p.takeOffload() {
		res, err := p.remote(ctx, model, x, d)
		if err == nil {
			return res, nil
		}
		// A failed cloud attempt falls back to the local tier: offload is
		// an optimization, never a new failure mode.
	}
	res, err := p.local(ctx, model, x, d)
	if err != nil && offloadable && errors.Is(err, serving.ErrOverloaded) {
		p.spilled.Add(1)
		if rres, rerr := p.remote(ctx, model, x, d); rerr == nil {
			return rres, nil
		}
		return res, err
	}
	if err == nil && model == p.alias {
		p.localServed.Add(1)
	}
	return res, err
}

func (p *Pilot) local(ctx context.Context, model string, x *tensor.Tensor, d time.Duration) (serving.Result, error) {
	if d > 0 {
		return p.eng.InferWithDeadline(model, x, d)
	}
	return p.eng.Infer(ctx, model, x)
}

// remote runs one request on the Offloader, translating the answer into a
// serving.Result whose Model is prefixed "cloud:".
func (p *Pilot) remote(ctx context.Context, model string, x *tensor.Tensor, d time.Duration) (serving.Result, error) {
	if d <= 0 {
		// Deadline propagation across the offload hop: a caller that bounded
		// the request through its context (the libei route does) gets the
		// remaining budget re-expressed as a wire-level deadline, so the
		// remote node sheds what can no longer be answered in time instead
		// of serving a response nobody is waiting for.
		if dl, ok := ctx.Deadline(); ok {
			if d = time.Until(dl); d <= 0 {
				return serving.Result{}, fmt.Errorf("%w: offload %s: budget exhausted", serving.ErrDeadline, model)
			}
		}
	}
	// The offload hop gets its own span (under the request's root) so a
	// stitched trace shows edge→cloud time separately from local serving.
	tb := obs.FromContext(ctx)
	start := time.Now()
	cls, conf, err := p.off.Offload(ctx, model, x.Data(), d)
	if tb != nil {
		tb.Add(obs.StageOffload, tb.Root(), start, time.Since(start),
			obs.Str("model", model))
	}
	if err != nil {
		p.offloadErrs.Add(1)
		return serving.Result{}, err
	}
	p.offloaded.Add(1)
	return serving.Result{Model: "cloud:" + model, Class: cls, Confidence: conf, BatchSize: 1}, nil
}

// takeOffload deterministically marks OffloadFraction of the request
// stream for the cloud: the integer part of n×f advances exactly once
// every 1/f requests, so the split needs no RNG and no lock.
func (p *Pilot) takeOffload() bool {
	f := p.pol.OffloadFraction
	if f >= 1 {
		return true
	}
	n := p.offSeq.Add(1)
	return uint64(float64(n)*f) > uint64(float64(n-1)*f)
}
