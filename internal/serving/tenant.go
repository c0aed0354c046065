package serving

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Multi-tenant admission and accounting. Every request belongs to a
// tenant (an application vertical: safety_video, smart_home, …); the
// tenant's class decides three things before a kernel ever runs:
//
//   - Admission: a per-tenant token bucket (RatePerSec/Burst) sheds a hot
//     client's excess at the front door with ErrOverloaded, so one tenant
//     cannot monopolize the shared queue no matter how fast it submits.
//   - Priority: queues are drained strictly highest-Priority-first at
//     dispatch time — a safety_video request never waits behind a backlog
//     of smart_home telemetry.
//   - Weight: within one priority tier, tenants share dispatch slots by
//     smooth weighted round-robin, so equal-priority tenants degrade
//     proportionally instead of FIFO-starving each other.
//
// Requests carry their tenant through the context (WithTenant); requests
// without one are accounted to the engine's default tenant.

// DefaultTenantName is the class requests without an explicit tenant are
// accounted to when Config.DefaultTenant is unset.
const DefaultTenantName = "default"

// TenantConfig declares one tenant's admission and scheduling class.
type TenantConfig struct {
	// Name is the tenant identifier requests carry (WithTenant / the
	// libei tenant parameter).
	Name string
	// Priority orders strict dispatch tiers: a queued request of a
	// higher-priority tenant is always dispatched before any
	// lower-priority one. Equal priorities share a tier.
	Priority int
	// Weight is the tenant's share of dispatch slots within its priority
	// tier (smooth weighted round-robin); ≤0 means 1.
	Weight int
	// RatePerSec is the sustained admission rate of the tenant's token
	// bucket; ≤0 means unlimited (no bucket).
	RatePerSec float64
	// Burst is the bucket depth — how many requests above the sustained
	// rate a bursty arrival may land before shedding starts; ≤0 means
	// max(1, ceil(RatePerSec)).
	Burst int
}

func (t TenantConfig) withDefaults() TenantConfig {
	if t.Weight <= 0 {
		t.Weight = 1
	}
	if t.Burst <= 0 {
		t.Burst = int(t.RatePerSec + 0.999)
		if t.Burst < 1 {
			t.Burst = 1
		}
	}
	return t
}

// tenantKey is the context key carrying the tenant name.
type tenantKey struct{}

// WithTenant returns a context whose requests are admitted and scheduled
// as the named tenant. libei's infer route calls this from the tenant
// request parameter; in-process callers can set it directly.
func WithTenant(ctx context.Context, tenant string) context.Context {
	if tenant == "" {
		return ctx
	}
	return context.WithValue(ctx, tenantKey{}, tenant)
}

// TenantFrom extracts the tenant name from a context ("" when unset).
func TenantFrom(ctx context.Context) string {
	t, _ := ctx.Value(tenantKey{}).(string)
	return t
}

// tokenBucket is a mutex-guarded continuous-refill token bucket.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(rate float64, burst int) *tokenBucket {
	return &tokenBucket{rate: rate, burst: float64(burst), tokens: float64(burst)}
}

// allow consumes one token if available, refilling for the time elapsed
// since the previous call.
func (b *tokenBucket) allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// tenantState is one tenant's runtime: its class, its admission bucket
// (nil when unlimited), and its engine-wide counters.
type tenantState struct {
	cfg    TenantConfig
	bucket *tokenBucket
	met    tenantMetrics
}

// tenantTable resolves tenant names to states. It is built once at
// NewEngine and read-only afterwards, so lookups need no lock.
type tenantTable struct {
	byName map[string]*tenantState
	def    *tenantState
	all    []*tenantState // stable order: priority desc, then name
}

func newTenantTable(cfgs []TenantConfig, defaultName string) *tenantTable {
	if defaultName == "" {
		defaultName = DefaultTenantName
	}
	t := &tenantTable{byName: map[string]*tenantState{}}
	for _, c := range cfgs {
		c = c.withDefaults()
		if c.Name == "" || t.byName[c.Name] != nil {
			continue
		}
		ts := &tenantState{cfg: c}
		if c.RatePerSec > 0 {
			ts.bucket = newTokenBucket(c.RatePerSec, c.Burst)
		}
		t.byName[c.Name] = ts
	}
	if t.byName[defaultName] == nil {
		// The catch-all class: no rate limit, lowest-ish standing unless
		// the operator declared it explicitly.
		t.byName[defaultName] = &tenantState{cfg: TenantConfig{Name: defaultName, Weight: 1}}
	}
	t.def = t.byName[defaultName]
	for _, ts := range t.byName {
		t.all = append(t.all, ts)
	}
	sort.Slice(t.all, func(i, j int) bool {
		if t.all[i].cfg.Priority != t.all[j].cfg.Priority {
			return t.all[i].cfg.Priority > t.all[j].cfg.Priority
		}
		return t.all[i].cfg.Name < t.all[j].cfg.Name
	})
	return t
}

// resolve maps a request's tenant name to its state; unknown or empty
// names land on the default class.
func (t *tenantTable) resolve(name string) *tenantState {
	if ts, ok := t.byName[name]; ok {
		return ts
	}
	return t.def
}

// tenantMetrics is one tenant's engine-wide counter set (atomics, same
// lock-free discipline as modelMetrics).
type tenantMetrics struct {
	admitted  atomic.Uint64 // passed bucket + queue admission
	throttled atomic.Uint64 // shed by the token bucket
	rejected  atomic.Uint64 // shed by a full queue
	expired   atomic.Uint64 // deadline lapsed (queue or pre-execution)
	errored   atomic.Uint64 // inference errors

	// stages is the tenant-axis twin of the per-model decomposition:
	// where this tenant's latency goes — scheduler backlog (its
	// priority/weight at work), batch assembly, or execution. Its latency
	// histogram counts the served requests.
	stages stageSet
}

// TenantStats is the JSON-friendly per-tenant snapshot in /ei_metrics —
// the counters the chaos harness asserts SLO attainment and shed
// confinement against.
type TenantStats struct {
	Tenant   string `json:"tenant"`
	Priority int    `json:"priority"`
	Weight   int    `json:"weight"`
	// RatePerSec and Burst echo the admission class (0 = unlimited).
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	Burst      int     `json:"burst,omitempty"`

	Admitted uint64 `json:"admitted"`
	// ShedThrottle counts requests dropped by the tenant's token bucket;
	// ShedQueue counts drops from a full model queue. Both surface to the
	// client as HTTP 429.
	ShedThrottle uint64 `json:"shed_throttle"`
	ShedQueue    uint64 `json:"shed_queue"`
	// ExpiredDeadline counts requests whose deadline lapsed before
	// execution (HTTP 408).
	ExpiredDeadline uint64 `json:"expired_deadline"`
	Errors          uint64 `json:"errors"`
	Served          uint64 `json:"served"`

	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`

	// Stage decomposition of this tenant's served requests (present once
	// any have been served), mirroring the per-model blocks.
	QueueWait *StageLatency `json:"queue_wait_ms,omitempty"`
	BatchWait *StageLatency `json:"batch_wait_ms,omitempty"`
	Exec      *StageLatency `json:"exec_ms,omitempty"`
}

func (ts *tenantState) snapshot() TenantStats {
	s := TenantStats{
		Tenant:          ts.cfg.Name,
		Priority:        ts.cfg.Priority,
		Weight:          ts.cfg.Weight,
		RatePerSec:      ts.cfg.RatePerSec,
		Burst:           ts.cfg.Burst,
		Admitted:        ts.met.admitted.Load(),
		ShedThrottle:    ts.met.throttled.Load(),
		ShedQueue:       ts.met.rejected.Load(),
		ExpiredDeadline: ts.met.expired.Load(),
		Errors:          ts.met.errored.Load(),
	}
	if s.RatePerSec <= 0 {
		s.Burst = 0
	}
	st := ts.met.stages.summary()
	s.Served = st.n
	if st.n > 0 {
		s.P50MS, s.P95MS, s.P99MS = st.latency.P50MS, st.latency.P95MS, st.latency.P99MS
		s.QueueWait, s.BatchWait, s.Exec = st.queueWait, st.batchWait, st.exec
	}
	return s
}

// TenantStats snapshots the engine's per-tenant counters, highest
// priority first. Tenants come from Config.Tenants plus the default
// class; requests naming an undeclared tenant are accounted to the
// default.
func (e *Engine) TenantStats() []TenantStats {
	out := make([]TenantStats, len(e.tenants.all))
	for i, ts := range e.tenants.all {
		out[i] = ts.snapshot()
	}
	return out
}
