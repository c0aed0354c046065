package serving

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"openei/internal/pkgmgr"
)

// loadTwoTiers loads two models with compatible (same element count)
// inputs into one manager so Swap can flip between them.
func loadTwoTiers(t *testing.T, cfg Config) *Engine {
	t.Helper()
	mgr := testManager(t)
	if err := mgr.Load(denseModel("tier-big", 32, 128, 4), pkgmgr.LoadOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Load(denseModel("tier-small", 32, 8, 4), pkgmgr.LoadOptions{}); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(mgr, cfg)
	t.Cleanup(e.Close)
	return e
}

func TestSwapRoutesRequests(t *testing.T) {
	e := loadTwoTiers(t, Config{Replicas: 1, MaxBatch: 4})
	x := oneHot(32, 1)
	res, err := e.Infer(context.Background(), "tier-big", x)
	if err != nil {
		t.Fatal(err)
	}
	if res.Model != "tier-big" {
		t.Fatalf("served by %q, want tier-big", res.Model)
	}
	if err := e.Swap("tier-big", "tier-small"); err != nil {
		t.Fatal(err)
	}
	if got := e.Route("tier-big"); got != "tier-small" {
		t.Fatalf("route = %q, want tier-small", got)
	}
	res, err = e.Infer(context.Background(), "tier-big", x)
	if err != nil {
		t.Fatal(err)
	}
	if res.Model != "tier-small" {
		t.Fatalf("served by %q after swap, want tier-small", res.Model)
	}
	// Swap back to self removes the route.
	if err := e.Swap("tier-big", "tier-big"); err != nil {
		t.Fatal(err)
	}
	if got := e.Route("tier-big"); got != "tier-big" {
		t.Fatalf("route after self-swap = %q", got)
	}
}

func TestSwapUnknownTarget(t *testing.T) {
	e := loadTwoTiers(t, Config{})
	if err := e.Swap("tier-big", "no-such-model"); err == nil {
		t.Fatal("swap to unknown model did not fail")
	}
	if got := e.Route("tier-big"); got != "tier-big" {
		t.Fatalf("failed swap changed route to %q", got)
	}
}

// TestSwapUnderLoadZeroDrops hammers one public name from many clients
// while flipping the route back and forth; every request must get an
// answer (drain-and-replace may reject nothing).
func TestSwapUnderLoadZeroDrops(t *testing.T) {
	e := loadTwoTiers(t, Config{
		Replicas: 2, MaxBatch: 8, QueueDepth: 4096,
	})
	const (
		clients   = 16
		perClient = 60
	)
	var (
		clientWG sync.WaitGroup
		swapWG   sync.WaitGroup
		served   [2]atomic.Uint64 // [0] tier-big, [1] tier-small
	)
	x := oneHot(32, 2)
	stop := make(chan struct{})
	swapWG.Add(1)
	go func() {
		defer swapWG.Done()
		tiers := [2]string{"tier-small", "tier-big"}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := e.Swap("tier-big", tiers[i%2]); err != nil {
				t.Errorf("swap: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	for c := 0; c < clients; c++ {
		clientWG.Add(1)
		go func() {
			defer clientWG.Done()
			for i := 0; i < perClient; i++ {
				res, err := e.Infer(context.Background(), "tier-big", x)
				if err != nil {
					t.Errorf("infer: %v", err)
					return
				}
				if res.Model == "tier-small" {
					served[1].Add(1)
				} else {
					served[0].Add(1)
				}
			}
		}()
	}
	clientWG.Wait()
	close(stop)
	swapWG.Wait()
	if total := served[0].Load() + served[1].Load(); total != clients*perClient {
		t.Fatalf("served %d answers, want %d (some requests were dropped)", total, clients*perClient)
	}
}
