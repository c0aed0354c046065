package serving

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"openei/internal/alem"
	"openei/internal/hardware"
	"openei/internal/nn"
	"openei/internal/pkgmgr"
	"openei/internal/tensor"
)

func tenantEngine(t *testing.T, cfg Config) *Engine {
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
	e := NewEngine(mgr, cfg)
	t.Cleanup(e.Close)
	return e
}

func hotSample(t *testing.T, class int) *tensor.Tensor {
	t.Helper()
	data := make([]float32, 4)
	data[class] = 1
	x, err := tensor.NewFrom(data, 4)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestTokenBucketAdmission(t *testing.T) {
	e := tenantEngine(t, Config{
		Replicas: 1, QueueDepth: 64,
		Tenants: []TenantConfig{{Name: "metered", RatePerSec: 1, Burst: 3}},
	})
	ctx := WithTenant(context.Background(), "metered")
	x := hotSample(t, 1)
	var ok, shed int
	for i := 0; i < 10; i++ {
		_, err := e.Infer(ctx, "ident", x)
		switch {
		case err == nil:
			ok++
		case errors.Is(err, ErrOverloaded):
			shed++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if ok < 3 || ok > 4 {
		// Burst of 3 plus at most one refilled token over the loop's wall
		// time. A shed burst must not consume tokens.
		t.Errorf("admitted %d of 10 at burst 3, want 3..4", ok)
	}
	if shed != 10-ok {
		t.Errorf("shed %d, want %d", shed, 10-ok)
	}
	stats := e.TenantStats()
	var m *TenantStats
	for i := range stats {
		if stats[i].Tenant == "metered" {
			m = &stats[i]
		}
	}
	if m == nil {
		t.Fatal("no stats row for tenant metered")
	}
	if m.ShedThrottle != uint64(shed) || m.Served != uint64(ok) {
		t.Errorf("tenant counters throttled=%d served=%d, want %d and %d",
			m.ShedThrottle, m.Served, shed, ok)
	}
	// An undeclared tenant rides the default class, unlimited.
	if _, err := e.Infer(WithTenant(context.Background(), "stranger"), "ident", x); err != nil {
		t.Errorf("undeclared tenant shed: %v", err)
	}
}

// TestStrictPriorityDispatch builds a backlog of low-priority requests,
// then pushes one high-priority request and checks it is taken first —
// the scheduler's strict-tier guarantee, independent of arrival order.
func TestStrictPriorityDispatch(t *testing.T) {
	tenants := newTenantTable([]TenantConfig{
		{Name: "safety_video", Priority: 10},
		{Name: "smart_home", Priority: 0},
	}, "")
	q := newSchedQueue(256, tenants)
	mk := func(name string) *request {
		return &request{tenant: tenants.resolve(name), resp: make(chan response, 1)}
	}
	const backlog = 32
	for i := 0; i < backlog; i++ {
		if !q.push(mk("smart_home")) {
			t.Fatal("push rejected below capacity")
		}
	}
	if !q.push(mk("safety_video")) {
		t.Fatal("push rejected below capacity")
	}
	<-q.ready
	if got := q.take().tenant.cfg.Name; got != "safety_video" {
		t.Fatalf("first take = %q, want safety_video ahead of %d queued smart_home requests", got, backlog)
	}
	// With the high-priority backlog empty the lower tier resumes.
	<-q.ready
	if got := q.take().tenant.cfg.Name; got != "smart_home" {
		t.Errorf("second take = %q, want smart_home", got)
	}
}

// TestPriorityEndToEnd drives the same guarantee through a live engine:
// concurrent mixed-tenant load on a single replica, every request
// served, per-tenant counters consistent.
func TestPriorityEndToEnd(t *testing.T) {
	e := tenantEngine(t, Config{
		Replicas: 1, MaxBatch: 4, QueueDepth: 256,
		Tenants: []TenantConfig{
			{Name: "safety_video", Priority: 10},
			{Name: "smart_home", Priority: 0},
		},
	})
	x := hotSample(t, 2)
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		name := "smart_home"
		if i%3 == 0 {
			name = "safety_video"
		}
		ctx := WithTenant(context.Background(), name)
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := e.Infer(ctx, "ident", x)
			if err != nil {
				t.Errorf("infer as %s: %v", name, err)
			} else if res.Tenant != name {
				t.Errorf("result tenant = %q, want %q", res.Tenant, name)
			}
		}()
	}
	wg.Wait()
	var served uint64
	for _, s := range e.TenantStats() {
		served += s.Served
		if s.Admitted != s.Served {
			t.Errorf("tenant %s: admitted %d != served %d", s.Tenant, s.Admitted, s.Served)
		}
	}
	if served != 24 {
		t.Errorf("served %d, want 24", served)
	}
}

// TestWeightedFairShareWithinTier checks that two equal-priority tenants
// with 3:1 weights drain a shared backlog roughly proportionally.
func TestWeightedFairShareWithinTier(t *testing.T) {
	tenants := newTenantTable([]TenantConfig{
		{Name: "heavy", Weight: 3},
		{Name: "light", Weight: 1},
	}, "")
	q := newSchedQueue(256, tenants)
	mk := func(name string) *request {
		return &request{tenant: tenants.resolve(name), resp: make(chan response, 1)}
	}
	for i := 0; i < 40; i++ {
		if !q.push(mk("heavy")) || !q.push(mk("light")) {
			t.Fatal("push rejected below capacity")
		}
	}
	// Count the split across the first 16 scheduled picks.
	counts := map[string]int{}
	for i := 0; i < 16; i++ {
		<-q.ready
		r := q.take()
		counts[r.tenant.cfg.Name]++
	}
	if counts["heavy"] != 12 || counts["light"] != 4 {
		t.Errorf("16 picks split heavy=%d light=%d, want 12/4 for weights 3:1", counts["heavy"], counts["light"])
	}
}

// TestSchedQueueCapacitySharedAcrossTenants checks the bound is global:
// pushes past QueueDepth are rejected regardless of tenant.
func TestSchedQueueCapacitySharedAcrossTenants(t *testing.T) {
	tenants := newTenantTable([]TenantConfig{{Name: "a"}, {Name: "b", Priority: 1}}, "")
	q := newSchedQueue(4, tenants)
	mk := func(name string) *request {
		return &request{tenant: tenants.resolve(name), resp: make(chan response, 1)}
	}
	for i := 0; i < 4; i++ {
		if !q.push(mk("a")) {
			t.Fatalf("push %d rejected below capacity", i)
		}
	}
	if q.push(mk("b")) {
		t.Error("push accepted past capacity")
	}
	if q.len() != 4 {
		t.Errorf("len = %d, want 4", q.len())
	}
	// Priority still wins at take time even though b queued last.
	if !q.push(mk("b")) {
		<-q.ready
		_ = q.take()
		if !q.push(mk("b")) {
			t.Fatal("push rejected after a take freed capacity")
		}
	}
	<-q.ready
	if got := q.take().tenant.cfg.Name; got != "b" {
		t.Errorf("first take = %q, want priority tenant b", got)
	}
}

// TestPreExecutionDeadlineDrop proves a request whose deadline lapsed
// while it queued is answered with ErrDeadline at the replica's gate
// instead of burning a kernel run, without costing its live batch-mates
// anything: they run as the smaller batch.
func TestPreExecutionDeadlineDrop(t *testing.T) {
	e := tenantEngine(t, Config{Replicas: 1, MaxBatch: 4, QueueDepth: 16})
	x := hotSample(t, 0)
	release := holdReplicas(t, e, "ident", x)
	stale := enqueue(t, e, "ident", x, time.Now().Add(time.Millisecond))
	live := enqueue(t, e, "ident", x, time.Time{})
	<-time.After(2 * time.Millisecond) // the stale request's budget lapses
	release()
	if r := <-stale.resp; !errors.Is(r.err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", r.err)
	}
	if r := <-live.resp; r.err != nil || r.res.BatchSize != 1 {
		t.Errorf("live request: err %v, batch of %d; want a batch of 1 (the expired one dropped out)", r.err, r.res.BatchSize)
	}
	st := e.Stats()
	if len(st) != 1 || st[0].ExpiredDeadline != 1 || st[0].Completed != 2 {
		t.Errorf("expired_deadline/completed not 1/2: %+v", st)
	}
	if st[0].Errors != 0 {
		t.Errorf("errors = %d, want 0 (expiry is not an inference error)", st[0].Errors)
	}
	if ts := e.TenantStats(); len(ts) != 1 || ts[0].ExpiredDeadline != 1 {
		t.Errorf("tenant expired_deadline not 1: %+v", ts)
	}
}

func TestTenantStatsOrderingAndDefaults(t *testing.T) {
	e := tenantEngine(t, Config{Tenants: []TenantConfig{
		{Name: "low", Priority: 1},
		{Name: "high", Priority: 9},
	}})
	stats := e.TenantStats()
	if len(stats) != 3 {
		t.Fatalf("stats rows = %d, want 3 (two declared + default)", len(stats))
	}
	if stats[0].Tenant != "high" || stats[1].Tenant != "low" || stats[2].Tenant != DefaultTenantName {
		t.Errorf("order = %s,%s,%s; want high,low,%s", stats[0].Tenant, stats[1].Tenant, stats[2].Tenant, DefaultTenantName)
	}
	if _, err := e.Infer(context.Background(), "ident", hotSample(t, 3)); err != nil {
		t.Fatal(err)
	}
	if got := e.TenantStats()[2].Served; got != 1 {
		t.Errorf("default tenant served = %d, want 1", got)
	}
}
