package gateway_test

// Cluster-mode gateway tests: the gateway discovers the fleet through
// gossip instead of a static node list, routes serving/infer by the
// consistent-hash shard map, survives node death and node join under
// concurrent client load, and grows a hot model's owner set through the
// replication autoscaler.

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"openei/internal/alem"
	"openei/internal/cluster"
	"openei/internal/gateway"
	"openei/internal/hardware"
	"openei/internal/libei"
	"openei/internal/nn"
	"openei/internal/pkgmgr"
	"openei/internal/serving"
	"openei/internal/zoo"
)

const (
	clusterImgSize = 16
	clusterClasses = 6
)

// clusterInput is a valid serving/infer input for any zoo model built at
// clusterImgSize: one 1×16×16 image flattened to CSV.
var clusterInput = func() string {
	vals := make([]string, clusterImgSize*clusterImgSize)
	for i := range vals {
		vals[i] = "0"
	}
	vals[3] = "1"
	return strings.Join(vals, ",")
}()

func inferFor(model string) string {
	return "/ei_algorithms/serving/infer?model=" + model + "&input=" + clusterInput
}

// zooProvider builds catalog models the way openei-server's cluster
// provider does; the per-name seed keeps every node's copy identical.
func zooProvider(name string) (*nn.Model, error) {
	rng := rand.New(rand.NewSource(int64(len(name)) + 77))
	return zoo.Build(name, clusterImgSize, clusterClasses, rng)
}

var clusterIncarnation atomic.Int64

// sinceStart timestamps test-log lines in milliseconds so the agent and
// client timelines can be correlated.
var testStart = time.Now()

func sinceStart() float64 {
	return float64(time.Since(testStart).Microseconds()) / 1000
}

// clusterNode is a full openei-server stand-in: package manager, serving
// engine, libei server, and the cluster agent gossiping in real time.
type clusterNode struct {
	id    string
	url   string
	ts    *httptest.Server
	agent *cluster.Agent
}

func startClusterNode(t *testing.T, id string, interval time.Duration, catalog []string, seeds ...string) *clusterNode {
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
	engine := serving.NewEngine(mgr, serving.Config{MaxBatch: 8, Replicas: 1, QueueDepth: 256})
	t.Cleanup(engine.Close)
	srv := libei.NewServer(id, nil, mgr)
	srv.SetEngine(engine)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	agent, err := cluster.NewAgent(mgr, engine, srv, cluster.AgentConfig{
		Self:     ts.URL,
		Seeds:    seeds,
		Catalog:  catalog,
		Provider: zooProvider,
		// Agent decisions land in the test log (shown on failure or -v):
		// the load/evict/suspect timeline is the first thing churn
		// debugging needs.
		Logf: func(format string, args ...any) {
			t.Logf("%8.0fms [%s] "+format,
				append([]any{sinceStart(), id}, args...)...)
		},
		Membership: cluster.MembershipConfig{
			Interval: interval,
			// The tests tick far faster than production; a generous
			// suspicion window keeps a loaded host from false-suspecting
			// live peers while still detecting real deaths within ~1s.
			SuspectAfter: 8 * interval,
			Incarnation:  clusterIncarnation.Add(1),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	agent.Start()
	t.Cleanup(agent.Halt)
	return &clusterNode{id: id, url: ts.URL, ts: ts, agent: agent}
}

// crash makes the node go silent without a goodbye: the gossip loop stops
// and the listener dies. The rest of the fleet must notice through the
// failure detector, not a leave announcement.
func (n *clusterNode) crash() {
	n.agent.Halt()
	n.ts.Close()
}

// startClusterFleet boots n nodes, the first acting as everyone's seed.
func startClusterFleet(t *testing.T, n int, interval time.Duration, catalog []string) []*clusterNode {
	t.Helper()
	seed := startClusterNode(t, "edge-0", interval, catalog)
	nodes := []*clusterNode{seed}
	for i := 1; i < n; i++ {
		nodes = append(nodes, startClusterNode(t, fmt.Sprintf("edge-%d", i), interval, catalog, seed.url))
	}
	return nodes
}

// waitMetrics polls the gateway until ok accepts a snapshot or the
// deadline passes.
func waitMetrics(t *testing.T, gw *gateway.Gateway, timeout time.Duration, desc string, ok func(m gateway.Metrics) bool) gateway.Metrics {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		m := gw.Metrics()
		if ok(m) {
			return m
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s\nlast cluster view: %+v", desc, m.Cluster)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// advertised maps node URL → the model set it advertised at its last
// status probe.
func advertised(m gateway.Metrics) map[string]map[string]bool {
	out := make(map[string]map[string]bool, len(m.Nodes))
	for _, n := range m.Nodes {
		set := make(map[string]bool, len(n.Models))
		for _, model := range n.Models {
			set[model] = true
		}
		out[n.URL] = set
	}
	return out
}

// shardConverged reports whether every catalog model has at least
// minOwners owners, none of them excluded, and every owner actually
// advertises the model (it finished loading the weights).
func shardConverged(m gateway.Metrics, catalog []string, minOwners int, exclude string) bool {
	if m.Cluster == nil {
		return false
	}
	adv := advertised(m)
	for _, model := range catalog {
		owners := m.Cluster.ShardMap[model]
		if len(owners) < minOwners {
			return false
		}
		for _, u := range owners {
			if u == exclude || !adv[u][model] {
				return false
			}
		}
	}
	return true
}

// withinCap reports whether no node owns more than capN models in the
// shard map. A plan computed over a still-partial member view tops up
// replication past the cap by design, so convergence checks include
// this bound to know the plan reflects the whole fleet.
func withinCap(m gateway.Metrics, capN int) bool {
	perNode := map[string]int{}
	for _, owners := range m.Cluster.ShardMap {
		for _, u := range owners {
			perNode[u]++
		}
	}
	for _, c := range perNode {
		if c > capN {
			return false
		}
	}
	return true
}

// TestClusterGatewayShardRouting: a gateway given only a gossip seed
// discovers the fleet, computes the shard map, and routes every
// serving/infer to an owner of the requested model.
func TestClusterGatewayShardRouting(t *testing.T) {
	const interval = 25 * time.Millisecond
	catalog := []string{"bonsai-m", "mlp", "protonn-m"}
	nodes := startClusterFleet(t, 4, interval, catalog)

	gw, front := startGateway(t, gateway.Config{
		ClusterSeeds:   []string{nodes[0].url},
		Catalog:        catalog,
		HealthInterval: interval,
		HealthTimeout:  8 * interval,
	})
	m := waitMetrics(t, gw, 20*time.Second, "shard convergence", func(m gateway.Metrics) bool {
		return m.HealthyNodes >= len(nodes) && shardConverged(m, catalog, 2, "")
	})

	owners := map[string]map[string]bool{}
	for model, os := range m.Cluster.ShardMap {
		owners[model] = map[string]bool{}
		for _, u := range os {
			owners[model][u] = true
		}
	}
	for _, model := range catalog {
		if len(owners[model]) != 2 {
			t.Fatalf("%s owner set = %v, want 2 distinct owners", model, m.Cluster.ShardMap[model])
		}
		for i := 0; i < 6; i++ {
			resp, err := http.Get(front.URL + inferFor(model))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s request %d: status %d body %.300s", model, i, resp.StatusCode, body)
			}
			if u := resp.Header.Get("X-Gateway-Node"); !owners[model][u] {
				t.Fatalf("%s served by non-owner %s (owners %v)", model, u, m.Cluster.ShardMap[model])
			}
		}
	}

	// The cluster section rides the public /gw_metrics wire format.
	status, body := get(t, front.URL+"/gw_metrics")
	if status != http.StatusOK || !strings.Contains(body, `"shard_map"`) || !strings.Contains(body, `"members"`) {
		t.Fatalf("/gw_metrics missing cluster section: status %d body %.400s", status, body)
	}
}

// TestClusterChurnScenario is the acceptance scenario: a 12-node fleet
// sharding the full zoo at replication 2 with no node holding more than
// half the catalog, 64 concurrent clients, one node killed and a fresh
// node joined mid-run — and zero client-visible failures end to end.
func TestClusterChurnScenario(t *testing.T) {
	const (
		interval = 30 * time.Millisecond
		nNodes   = 12
	)
	clients, phase := 64, 500*time.Millisecond
	if testing.Short() {
		clients, phase = 24, 250*time.Millisecond
	}
	catalog := zoo.Names()
	nodes := startClusterFleet(t, nNodes, interval, catalog)

	gw, front := startGateway(t, gateway.Config{
		ClusterSeeds:   []string{nodes[0].url},
		HealthInterval: interval,
		HealthTimeout:  8 * interval,
		// One attempt per fleet member (the classic-mode default), so a
		// request can sweep the whole fleet during a rebalance.
		Retries: nNodes + 2,
	})
	// Converged means: every model has 2 loaded owners AND the bounded-load
	// cap holds — a plan computed over a still-partial member view tops up
	// replication past the cap, so the cap holding is part of the plan
	// reflecting the full 12-node fleet.
	capN := cluster.NodeCap(0.5, len(catalog))
	m := waitMetrics(t, gw, 30*time.Second, "initial shard convergence", func(m gateway.Metrics) bool {
		return m.HealthyNodes >= nNodes && shardConverged(m, catalog, 2, "") && withinCap(m, capN)
	})

	// Bounded load: no node holds more than MaxZooFraction of the zoo.
	perNode := map[string]int{}
	for _, os := range m.Cluster.ShardMap {
		for _, u := range os {
			perNode[u]++
		}
	}
	for u, c := range perNode {
		if c > capN {
			t.Errorf("%s holds %d of %d zoo models, above the %d cap", u, c, len(catalog), capN)
		}
	}

	var (
		stop            atomic.Bool
		wg              sync.WaitGroup
		total, failures atomic.Int64
		failMu          sync.Mutex
		firstFail       string
	)
	recordFail := func(msg string) {
		failures.Add(1)
		failMu.Lock()
		if firstFail == "" {
			firstFail = msg
		}
		failMu.Unlock()
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &http.Client{Timeout: 15 * time.Second}
			for i := 0; !stop.Load(); i++ {
				model := catalog[(c+i)%len(catalog)]
				resp, err := cl.Get(front.URL + inferFor(model))
				total.Add(1)
				if err != nil {
					recordFail(fmt.Sprintf("%s: %v", model, err))
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					recordFail(fmt.Sprintf("%8.0fms %s: status %d: %.300s", sinceStart(), model, resp.StatusCode, body))
				}
			}
		}(c)
	}

	// Phase 1: steady state, then kill a non-seed node that owns shards.
	time.Sleep(phase)
	var victim *clusterNode
	for _, n := range nodes[1:] {
		if perNode[n.url] > 0 {
			victim = n
			break
		}
	}
	if victim == nil {
		t.Fatal("no non-seed node owns any shard; placement is broken")
	}
	victim.crash()

	// Phase 2: a brand-new node joins the churning fleet.
	time.Sleep(phase)
	joiner := startClusterNode(t, "edge-join", interval, catalog, nodes[0].url)

	// The fleet must re-converge with the victim gone from every owner
	// set, replication restored, and the joiner an alive member.
	waitMetrics(t, gw, 30*time.Second, "post-churn convergence", func(mm gateway.Metrics) bool {
		if !shardConverged(mm, catalog, 2, victim.url) {
			return false
		}
		for _, mem := range mm.Cluster.Members {
			if mem.URL == joiner.url && mem.State == cluster.StateAlive {
				return true
			}
		}
		return false
	})

	// Let clients run against the post-churn fleet before stopping.
	time.Sleep(phase / 2)
	stop.Store(true)
	wg.Wait()

	if failures.Load() != 0 {
		t.Fatalf("%d of %d requests failed across node kill + join; first: %s",
			failures.Load(), total.Load(), firstFail)
	}
	if total.Load() < int64(clients)*4 {
		t.Fatalf("suspiciously few requests completed: %d", total.Load())
	}
	gm := gw.Metrics()
	if gm.Cluster == nil || len(gm.Cluster.ShardMap) != len(catalog) {
		t.Fatalf("shard map incomplete after churn: %+v", gm.Cluster)
	}
	t.Logf("churn: %d requests, 0 failures, %d gateway retries", total.Load(), gm.Retried)
}

// TestClusterAutoscalerGrowsHotModel: skewed load on one model drives the
// gateway's owner-set controller to raise its replication, push the
// override into the mesh, and land a third advertising owner — while an
// idle model's owner set stays at the base replication.
func TestClusterAutoscalerGrowsHotModel(t *testing.T) {
	const interval = 25 * time.Millisecond
	catalog := []string{"bonsai-m", "mlp", "protonn-m"}
	nodes := startClusterFleet(t, 4, interval, catalog)

	gw, front := startGateway(t, gateway.Config{
		ClusterSeeds:   []string{nodes[0].url},
		Catalog:        catalog,
		HealthInterval: interval,
		HealthTimeout:  8 * interval,
		Autoscale: cluster.AutoscaleConfig{
			Min:       2,
			Max:       3,
			GrowQueue: 4,
			// The histogram's resolution: any model that has served a
			// request reads hot, an idle one (p95 0) never does — the
			// signal path is under test here, not how slow mlp is.
			GrowP95:   time.Microsecond,
			GrowAfter: 2,
		},
	})
	waitMetrics(t, gw, 20*time.Second, "shard convergence", func(m gateway.Metrics) bool {
		return m.HealthyNodes >= len(nodes) && shardConverged(m, catalog, 2, "")
	})

	// Skewed load: every client hammers the same model.
	const hot = "mlp"
	var stop atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := &http.Client{Timeout: 15 * time.Second}
			for !stop.Load() {
				resp, err := cl.Get(front.URL + inferFor(hot))
				if err != nil {
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	m := waitMetrics(t, gw, 20*time.Second, "hot owner-set growth", func(m gateway.Metrics) bool {
		if m.Cluster == nil || m.Cluster.ScaleEvents == 0 {
			return false
		}
		owners := m.Cluster.ShardMap[hot]
		if len(owners) < 3 {
			return false
		}
		adv := advertised(m)
		for _, u := range owners {
			if !adv[u][hot] {
				return false
			}
		}
		return true
	})
	stop.Store(true)
	wg.Wait()

	if rep := m.Cluster.Replication[hot]; rep.N < 3 {
		t.Fatalf("replication override for %s = %+v, want N ≥ 3", hot, rep)
	}
	// The idle models' owner sets stay at base replication.
	for _, cold := range []string{"bonsai-m", "protonn-m"} {
		if got := len(m.Cluster.ShardMap[cold]); got != 2 {
			t.Errorf("idle model %s owner set = %v, want the base 2", cold, m.Cluster.ShardMap[cold])
		}
	}
}
