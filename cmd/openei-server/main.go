// Command openei-server runs one OpenEI edge node: it deploys the
// framework on a chosen device profile, bootstraps demo sensors and a
// trained model (fetched from a cloud registry when -cloud is given,
// trained locally otherwise), enables the four Section V scenarios, and
// serves the libei REST API.
//
// Usage:
//
//	openei-server -addr :8080 -node kitchen-pi -device rpi3 \
//	    [-cloud http://cloud:9090] [-peers http://other-edge:8081]
//
// Then, per Figure 6:
//
//	curl http://localhost:8080/ei_status
//	curl http://localhost:8080/ei_resources
//	curl http://localhost:8080/ei_metrics
//	curl http://localhost:8080/ei_data/realtime/camera1?n=1
//	curl http://localhost:8080/ei_algorithms/safety/detection?video=camera1
//	curl http://localhost:8080/ei_algorithms/safety/mask?video=camera1
//	curl "http://localhost:8080/ei_algorithms/serving/infer?model=power-net&input=0.1,0.2,...(32 values)"
//
// The serving engine (work-conserving batching across model replicas with
// a bounded admission queue) is tuned with -serve-max-batch,
// -serve-replicas and -serve-queue-depth; under overload the infer route
// returns HTTP 429. Multi-tenant admission is declared with -tenants
// (comma-separated name:priority:weight[:rps[:burst]] classes — strict
// priority tiers, weighted fair share within a tier, optional token
// bucket) and -default-tenant; requests pick their class with &tenant=
// and a request whose &deadline_ms= budget lapses in the queue answers
// 408. Per-tenant counters appear under "tenants" in GET /ei_metrics. Serving replicas execute compiled inference plans;
// -backend picks the demo model's kernel set (auto/float32/int8/int4 —
// "auto" takes int8 when the package supports it), and each pipeline
// reports its backend and kernel dispatch in GET /ei_metrics. Recurrent models compile with early-exit
// support: -exit-threshold sets the confidence at which a sample retires
// before consuming the full recurrent window (0 disables), and capable
// pipelines report per-exit-head counts and latency quantiles in the
// "exits" block of GET /ei_metrics. The parallel kernel pool that dense kernels
// shard across is tuned with -procs (width, default all cores) and
// -parallel-grain (serial cutoff in fused ops); its utilization shows up
// under "parallel" in GET /ei_metrics.
//
// With -slo-p95 the node runs the autopilot: the detection model gets a
// Pareto tier ladder (fp32, int8, and a kilobyte-class fallback, filtered
// by -slo-accuracy-floor / -slo-memory-mb), the live p95 is measured every
// -slo-interval, and the serving route is hot-swapped down the ladder when
// the SLO is missed — offloading to the -offload (default -cloud) serving
// endpoint when even the cheapest tier misses it — then back up with
// hysteresis (-slo-upgrade-after, -slo-headroom) once the node recovers.
// Autopilot state (current tier, switch history, offload ratio, SLO
// attainment) appears under "autopilot" in GET /ei_metrics.
//
// With -peers, the node polls each peer's /ei_status every 2 s and logs
// live↔suspect transitions (the §IV.C availability loop).
//
// With -advertise, the node joins the gossip cluster: it rendezvouses
// with -cluster-seeds, advertises its identity and loaded-model set via
// /ei_status, and loads or evicts zoo models as the consistent-hash
// placement plan assigns them (-replication owners per model, no node
// holding more than -max-zoo-fraction of the catalog). Put
// cmd/openei-gateway in front with the same -cluster-seeds and it
// routes each serving/infer request to the model's owner set.
//
// To scale past one box, run several nodes and put cmd/openei-gateway in
// front: it probes each node's /ei_status and /ei_metrics (the
// "queue_depth" field below is its balancing signal), routes requests to
// the least-loaded live node, and fails idempotent calls over to a peer
// when a node dies mid-request.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"openei"
	"openei/internal/cloud"
	"openei/internal/cluster"
	"openei/internal/collab"
	"openei/internal/dataset"
	"openei/internal/libei"
	"openei/internal/nn"
	"openei/internal/obs"
	"openei/internal/parallel"
	"openei/internal/runenv"
	"openei/internal/sensors"
	"openei/internal/zoo"
)

// clusterOpts carries the gossip-membership flags into run.
type clusterOpts struct {
	Advertise      string
	Seeds          []string
	Replication    int
	MaxZooFraction float64
}

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("openei-server: ")
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		nodeID   = flag.String("node", "edge-1", "node identifier")
		device   = flag.String("device", "rpi3", "hardware profile (see openei.Devices)")
		pkgName  = flag.String("package", "eipkg", "runtime package profile")
		cloudURL = flag.String("cloud", "", "cloud registry base URL; empty trains the demo model locally")
		peers    = flag.String("peers", "", "comma-separated peer base URLs to watch via /ei_status heartbeats")
		seed     = flag.Int64("seed", 1, "seed for demo data and training")

		// Serving-engine knobs (GET /ei_algorithms/serving/infer,
		// GET /ei_metrics). Zero keeps the engine default.
		maxBatch   = flag.Int("serve-max-batch", 0, "largest inference batch a replica takes at once (0 = default)")
		replicas   = flag.Int("serve-replicas", 0, "model replicas per serving pipeline (0 = default)")
		queueDepth = flag.Int("serve-queue-depth", 0, "bounded serving queue; full queue returns 429 (0 = default)")

		// Multi-tenant admission and scheduling: each class is
		// name:priority:weight with an optional token-bucket rate.
		tenants       = flag.String("tenants", "", "comma-separated tenant classes as name:priority:weight[:rps[:burst]]; requests pick their class with &tenant=")
		defaultTenant = flag.String("default-tenant", "", "class unattributed requests are accounted to (default \"default\"; name a -tenants entry to rate-limit the catch-all)")

		// Parallel kernel-pool knobs: every dense kernel (matmul, conv,
		// pooling) shards across this process-wide pool.
		procs = flag.Int("procs", 0, "parallel kernel pool width (0 = all cores)")
		grain = flag.Int("parallel-grain", 0, "serial cutoff in fused ops; kernels below it skip the pool (0 = default)")

		// Execution backend of the demo model's serving plan: serving
		// replicas compile loaded models into execution plans, and this
		// picks the kernel set ("auto" = int8 when the package has int8
		// kernels, else float32).
		backendName = flag.String("backend", "auto", "serving backend for the detection model: auto, float32, int8, or int4")

		// Early-exit knob: recurrent models whose plans carry an exit
		// graph retire samples once the per-step classifier reaches this
		// confidence. Feed-forward pipelines ignore it.
		exitThr = flag.Float64("exit-threshold", 0, "early-exit confidence threshold in (0,1] for recurrent serving plans; 0 disables")

		// Autopilot SLO knobs: with -slo-p95 set the node profiles a tier
		// ladder for the detection model at startup and switches tiers /
		// offloads to the cloud at runtime to hold the SLO.
		sloP95      = flag.Duration("slo-p95", 0, "p95 latency SLO for the detection model; 0 disables the autopilot")
		sloFloor    = flag.Float64("slo-accuracy-floor", 0.5, "lowest tier accuracy the autopilot may switch to")
		sloMemMB    = flag.Int64("slo-memory-mb", 0, "tier memory cap in MiB (0 = device limit only)")
		sloInterval = flag.Duration("slo-interval", 0, "autopilot control tick (0 = default 500ms)")
		sloDown     = flag.Int("slo-downgrade-after", 0, "consecutive SLO-missing ticks before a downgrade (0 = default 1)")
		sloUp       = flag.Int("slo-upgrade-after", 0, "consecutive comfortable ticks before an upgrade (0 = default 3)")
		sloHeadroom = flag.Float64("slo-headroom", 0, "upgrade only when p95 ≤ headroom×SLO (0 = default 0.6)")
		sloOffload  = flag.Float64("slo-offload-fraction", 0, "share of requests offloaded while over SLO on the last tier (0 = default 0.5)")
		offloadURL  = flag.String("offload", "", "serving endpoint for edge→cloud offload (default: the -cloud URL)")

		// Cluster-membership knobs: with -advertise set the node gossips
		// with its seeds and shards the zoo catalog across the fleet.
		advertise    = flag.String("advertise", "", "this node's base URL as peers reach it; enables gossip cluster membership")
		clusterSeeds = flag.String("cluster-seeds", "", "comma-separated peer base URLs to rendezvous with")
		replication  = flag.Int("replication", 0, "owner-set size per sharded zoo model (0 = default 2)")
		maxZooFrac   = flag.Float64("max-zoo-fraction", 0, "cap on this node's share of the zoo catalog (0 = default 0.5)")

		// Observability knobs: request tracing (GET /ei_trace) and the
		// pprof debug listener. /metrics (Prometheus) is always on.
		traceRate = flag.Float64("trace-sample", 0, "head-sampling rate for request traces in [0,1]; errors and p99-tail requests are kept regardless")
		traceRing = flag.Int("trace-ring", 0, "stored traces retained for /ei_trace (0 = default 256)")
		debugAddr = flag.String("debug-addr", "", "listen address for the pprof debug server (empty = off)")
		blockRate = flag.Int("block-profile-rate", -1, "runtime.SetBlockProfileRate value (-1 = leave default)")
		mutexFrac = flag.Int("mutex-profile-fraction", -1, "runtime.SetMutexProfileFraction value (-1 = leave default)")
	)
	flag.Parse()
	obs.SetProfileRates(*blockRate, *mutexFrac)
	if *debugAddr != "" {
		if _, got, err := obs.StartDebugServer(*debugAddr); err != nil {
			log.Fatalf("debug server: %v", err)
		} else {
			log.Printf("pprof debug server on %s", got)
		}
	}
	tenantCfgs, err := parseTenants(*tenants)
	if err != nil {
		log.Fatal(err)
	}
	servingCfg := openei.ServingConfig{
		MaxBatch: *maxBatch, Replicas: *replicas, QueueDepth: *queueDepth,
		Procs: *procs, ParallelGrain: *grain,
		Tenants: tenantCfgs, DefaultTenant: *defaultTenant,
		ExitThreshold: *exitThr,
	}
	slo := openei.AutopilotPolicy{
		P95:             *sloP95,
		AccuracyFloor:   *sloFloor,
		MemoryCap:       *sloMemMB << 20,
		Interval:        *sloInterval,
		DowngradeAfter:  *sloDown,
		UpgradeAfter:    *sloUp,
		UpgradeHeadroom: *sloHeadroom,
		OffloadFraction: *sloOffload,
	}
	fallback := *offloadURL
	if fallback == "" {
		fallback = *cloudURL
	}
	clu := clusterOpts{
		Advertise:      *advertise,
		Replication:    *replication,
		MaxZooFraction: *maxZooFrac,
	}
	for _, u := range strings.Split(*clusterSeeds, ",") {
		if u = strings.TrimSpace(u); u != "" {
			clu.Seeds = append(clu.Seeds, u)
		}
	}
	if err := run(*addr, *nodeID, *device, *pkgName, *cloudURL, *peers, fallback, *backendName, *seed, servingCfg, slo, clu, *traceRate, *traceRing); err != nil {
		log.Fatal(err)
	}
}

// parseTenants decodes the -tenants flag: comma-separated classes, each
// name:priority:weight with an optional :rps[:burst] token-bucket tail.
func parseTenants(spec string) ([]openei.TenantConfig, error) {
	var out []openei.TenantConfig
	for _, entry := range strings.Split(spec, ",") {
		if entry = strings.TrimSpace(entry); entry == "" {
			continue
		}
		parts := strings.Split(entry, ":")
		if len(parts) < 3 || len(parts) > 5 {
			return nil, fmt.Errorf("bad -tenants entry %q: want name:priority:weight[:rps[:burst]]", entry)
		}
		tc := openei.TenantConfig{Name: parts[0]}
		if tc.Name == "" {
			return nil, fmt.Errorf("bad -tenants entry %q: empty name", entry)
		}
		var err error
		if tc.Priority, err = strconv.Atoi(parts[1]); err != nil {
			return nil, fmt.Errorf("bad -tenants entry %q: priority: %v", entry, err)
		}
		if tc.Weight, err = strconv.Atoi(parts[2]); err != nil {
			return nil, fmt.Errorf("bad -tenants entry %q: weight: %v", entry, err)
		}
		if len(parts) > 3 {
			if tc.RatePerSec, err = strconv.ParseFloat(parts[3], 64); err != nil {
				return nil, fmt.Errorf("bad -tenants entry %q: rps: %v", entry, err)
			}
		}
		if len(parts) > 4 {
			if tc.Burst, err = strconv.Atoi(parts[4]); err != nil {
				return nil, fmt.Errorf("bad -tenants entry %q: burst: %v", entry, err)
			}
		}
		out = append(out, tc)
	}
	return out, nil
}

func run(addr, nodeID, device, pkgName, cloudURL, peers, offloadURL, backendName string, seed int64, servingCfg openei.ServingConfig, slo openei.AutopilotPolicy, clu clusterOpts, traceRate float64, traceRing int) error {
	node, err := openei.New(openei.Config{NodeID: nodeID, Device: device, Package: pkgName, Serving: servingCfg, Autopilot: slo})
	if err != nil {
		return err
	}
	defer node.Close()
	node.Server.SetTracer(obs.NewTracer(obs.Config{SampleRate: traceRate, Ring: traceRing, Source: nodeID}))
	eff := node.Serving.Config()
	pool := parallel.Snapshot()
	log.Printf("serving engine: max-batch %d, replicas %d, queue-depth %d; kernel pool: %d workers, grain %d",
		eff.MaxBatch, eff.Replicas, eff.QueueDepth, pool.Workers, pool.GrainWork)

	const (
		size    = 16
		classes = 6
	)
	// The shapes corpus backs local training and tier profiling; skip
	// generating it when the model comes from the cloud and no SLO needs
	// an eval split.
	var train, test openei.Dataset
	if cloudURL == "" || slo.P95 > 0 {
		if train, test, err = dataset.Shapes(dataset.ShapesConfig{Samples: 900, Size: size, Classes: classes, Noise: 0.3, Seed: seed}); err != nil {
			return err
		}
	}
	model, err := bootstrapModel(cloudURL, train, size, classes, seed)
	if err != nil {
		return err
	}
	backend := openei.Backend(backendName)
	if backendName == "auto" {
		backend = openei.BackendFloat32
		if node.Package().SupportsInt8 {
			backend = openei.BackendInt8
		}
	}
	if err := node.LoadModelBackend(model, backend); err != nil {
		return err
	}
	log.Printf("loaded model %q on %s/%s (serving backend %s)", model.Name, pkgName, device, backend)

	// With an SLO declared, profile a tier ladder for the detector (its
	// int8 variant plus a locally trained kilobyte-class fallback) and
	// start the autopilot; the cloud (or -offload) endpoint becomes the
	// last-resort rung.
	if slo.P95 > 0 {
		if backendName != "auto" {
			// DeployTiers reloads the detector's tier variants with the
			// backend each Pareto rung earned; a hand-picked -backend
			// does not survive that.
			log.Printf("autopilot enabled: tier ladder backends supersede -backend %s", backendName)
		}
		mini, err := trainMini(train, size, classes, seed)
		if err != nil {
			return err
		}
		cands := map[string]*openei.Model{model.Name: model, mini.Name: mini}
		tiers, err := node.DeployTiers(cands, test, slo)
		if err != nil {
			return err
		}
		var off openei.Offloader
		if offloadURL != "" {
			off = openei.NewRemoteOffloader(offloadURL, "detector")
		}
		if _, err := node.EnableAutopilot(model.Name, tiers, off); err != nil {
			return err
		}
		for i, t := range tiers {
			log.Printf("autopilot tier %d: %s (acc %.3f, profiled %v)", i, t.Model, t.Accuracy, t.Latency)
		}
		log.Printf("autopilot: p95 SLO %v on %q, offload %q", slo.P95, model.Name, offloadURL)
	}

	// Demo sensors: one camera, one power meter, one wearable IMU.
	cam, err := sensors.NewCamera("camera1", size, classes, seed)
	if err != nil {
		return err
	}
	meter, err := sensors.NewPowerMeter("meter1", 32, seed+1)
	if err != nil {
		return err
	}
	imu, err := sensors.NewIMU("imu1", 16, 0, seed+2)
	if err != nil {
		return err
	}
	for _, d := range []sensors.Driver{cam, meter, imu} {
		if err := node.Store.Register(d.Info()); err != nil {
			return err
		}
	}

	// Scenario models for meter and IMU, trained at startup (small nets,
	// a few seconds).
	powerModel, actModel, err := scenarioModels(seed)
	if err != nil {
		return err
	}
	if err := node.LoadModel(powerModel, false); err != nil {
		return err
	}
	if err := node.LoadModel(actModel, false); err != nil {
		return err
	}
	if err := node.EnableSafety(model.Name, "camera1", dataset.ShapeClassNames[:classes], 3); err != nil {
		return err
	}
	if err := node.EnableVehicles("camera1", 8); err != nil {
		return err
	}
	if err := node.EnableHome(powerModel.Name, "meter1", dataset.PowerClassNames); err != nil {
		return err
	}
	if err := node.EnableHealth(actModel.Name, "imu1", dataset.ActivityClassNames, 3); err != nil {
		return err
	}
	if err := node.EnableMask("camera1"); err != nil {
		return err
	}

	// Carve the device between the scenarios (OpenVDAP-style) and expose
	// the allocations at GET /ei_resources.
	vcu := openei.NewVCU(node.Device())
	for _, a := range []openei.VCURequest{
		{App: "safety", ComputeShare: 0.4, MemBytes: 32 << 20},
		{App: "vehicles", ComputeShare: 0.2, MemBytes: 16 << 20},
		{App: "home", ComputeShare: 0.1, MemBytes: 8 << 20},
		{App: "health", ComputeShare: 0.1, MemBytes: 8 << 20},
	} {
		if _, err := vcu.Allocate(a); err != nil {
			return err
		}
	}
	node.AttachVCU(vcu)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Feed the sensors continuously until shutdown.
	go feedLoop(ctx, node, []sensors.Driver{cam, meter, imu})

	// Watch peers via their /ei_status heartbeats (§IV.C availability).
	if peers != "" {
		go watchPeers(ctx, peers)
	}

	// Join the gossip cluster: the agent rendezvouses with its seeds,
	// advertises this node's loaded-model set, and loads/evicts zoo
	// models as the consistent-hash placement plan assigns them. Models
	// this node already serves locally — the detector backing the safety
	// scenario, power-net/activity-net, autopilot tier rungs — are
	// carved out of the sharded namespace: the plan must never evict a
	// model a scenario route depends on.
	if clu.Advertise != "" {
		local := map[string]bool{}
		for _, name := range node.Manager.Models() {
			local[name] = true
		}
		var catalog []string
		for _, name := range zoo.Names() {
			if !local[name] {
				catalog = append(catalog, name)
			}
		}
		agent, err := cluster.NewAgent(node.Manager, node.Serving, node.Server, cluster.AgentConfig{
			Self:           clu.Advertise,
			Seeds:          clu.Seeds,
			Catalog:        catalog,
			Provider:       clusterProvider(cloudURL, size, classes, seed),
			Quantize:       node.Package().SupportsInt8,
			Replication:    clu.Replication,
			MaxZooFraction: clu.MaxZooFraction,
			Logf:           log.Printf,
		})
		if err != nil {
			return err
		}
		agent.Start()
		defer agent.Close()
		log.Printf("cluster: advertising %s, %d seeds", clu.Advertise, len(clu.Seeds))
	}

	srv := &http.Server{Addr: addr, Handler: node.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
	}()
	log.Printf("node %q serving libei on %s", nodeID, addr)
	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("shut down")
	return nil
}

// bootstrapModel fetches the detection model from the cloud registry, or
// trains one locally when no cloud is configured (edge-autonomy mode).
func bootstrapModel(cloudURL string, train openei.Dataset, size, classes int, seed int64) (*openei.Model, error) {
	if cloudURL != "" {
		c := cloud.NewRegistryClient(cloudURL)
		blob, version, err := c.Fetch("detector")
		if err != nil {
			return nil, err
		}
		log.Printf("fetched detector v%d from %s (%d bytes)", version, cloudURL, len(blob))
		return nn.DecodeModel(blob)
	}
	log.Printf("no cloud registry configured; training detector locally")
	rng := rand.New(rand.NewSource(seed))
	m, err := zoo.Build("lenet", size, classes, rng)
	if err != nil {
		return nil, err
	}
	if _, _, err := nn.Train(m, train, nn.TrainConfig{Epochs: 8, BatchSize: 32, LR: 0.02, Momentum: 0.9, Rand: rng}); err != nil {
		return nil, err
	}
	return m, nil
}

// clusterProvider materializes a zoo model the placement plan assigned
// to this node: fetched from the cloud registry when one is configured,
// built locally otherwise. Local builds seed the weights from the model
// name so every node in the fleet materializes identical replicas.
func clusterProvider(cloudURL string, size, classes int, seed int64) func(string) (*nn.Model, error) {
	var reg *cloud.RegistryClient
	if cloudURL != "" {
		reg = cloud.NewRegistryClient(cloudURL)
	}
	return func(name string) (*nn.Model, error) {
		if reg != nil {
			if blob, version, err := reg.Fetch(name); err == nil {
				log.Printf("cluster: fetched %s v%d from registry (%d bytes)", name, version, len(blob))
				return nn.DecodeModel(blob)
			}
		}
		h := seed
		for _, b := range []byte(name) {
			h = h*31 + int64(b)
		}
		return zoo.Build(name, size, classes, rand.New(rand.NewSource(h)))
	}
}

// trainMini trains the kilobyte-class fallback rung of the autopilot's
// tier ladder (a few seconds of local work).
func trainMini(train openei.Dataset, size, classes int, seed int64) (*openei.Model, error) {
	rng := rand.New(rand.NewSource(seed + 20))
	m, err := zoo.Build("bonsai-m", size, classes, rng)
	if err != nil {
		return nil, err
	}
	if _, _, err := nn.Train(m, train, nn.TrainConfig{Epochs: 8, BatchSize: 32, LR: 0.05, Momentum: 0.9, Rand: rng}); err != nil {
		return nil, err
	}
	return m, nil
}

func scenarioModels(seed int64) (power, activity *openei.Model, err error) {
	pTrain, _, err := dataset.Power(dataset.PowerConfig{Samples: 600, Window: 32, Noise: 0.08, Seed: seed + 10})
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed + 11))
	power = nn.MustModel("power-net", []int{32}, []nn.LayerSpec{
		{Type: "dense", In: 32, Out: 24},
		{Type: "relu"},
		{Type: "dense", In: 24, Out: len(dataset.PowerClassNames)},
	})
	power.InitParams(rng)
	if _, _, err := nn.Train(power, pTrain, nn.TrainConfig{Epochs: 10, BatchSize: 32, LR: 0.1, Momentum: 0.9, Rand: rng}); err != nil {
		return nil, nil, err
	}
	aTrain, _, err := dataset.Activity(dataset.ActivityConfig{Samples: 600, Window: 16, Noise: 0.15, Seed: seed + 12})
	if err != nil {
		return nil, nil, err
	}
	activity = nn.MustModel("activity-net", []int{48}, []nn.LayerSpec{
		{Type: "dense", In: 48, Out: 32},
		{Type: "relu"},
		{Type: "dense", In: 32, Out: len(dataset.ActivityClassNames)},
	})
	activity.InitParams(rng)
	if _, _, err := nn.Train(activity, aTrain, nn.TrainConfig{Epochs: 10, BatchSize: 32, LR: 0.1, Momentum: 0.9, Rand: rng}); err != nil {
		return nil, nil, err
	}
	return power, activity, nil
}

// watchPeers polls each peer's /ei_status every 2 s, records heartbeats
// in a failure detector, and logs live↔suspect transitions — the §IV.C
// availability loop, runnable across real processes.
func watchPeers(ctx context.Context, peerList string) {
	const (
		interval = 2 * time.Second
		timeout  = 3 * interval
	)
	clients := map[string]*libei.Client{}
	for _, u := range strings.Split(peerList, ",") {
		if u = strings.TrimSpace(u); u != "" {
			clients[u] = libei.NewClient(u)
		}
	}
	if len(clients) == 0 {
		return
	}
	mon := runenv.NewMonitor(timeout)
	wasLive := map[string]bool{}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-ticker.C:
			// Bound each probe round to the poll period: a stuck peer
			// times out instead of stalling the loop past its next tick.
			probeCtx, cancel := context.WithTimeout(ctx, interval)
			alive, errs := collab.PollHeartbeats(probeCtx, mon, clients, now)
			cancel()
			for _, id := range alive {
				if !wasLive[id] {
					log.Printf("peer %q is live", id)
					wasLive[id] = true
				}
			}
			for id := range wasLive {
				if !wasLive[id] {
					continue
				}
				if st, err := mon.State(id, now); err == nil && st == runenv.NodeSuspect {
					log.Printf("peer %q is SUSPECT (no heartbeat for %v)", id, timeout)
					wasLive[id] = false
				}
			}
			// Probe errors for peers never seen are start-order noise;
			// transitions of known peers are already logged above.
			_ = errs
		}
	}
}

// feedLoop appends fresh sensor samples until the context is cancelled.
func feedLoop(ctx context.Context, node *openei.Node, drivers []sensors.Driver) {
	ticker := time.NewTicker(500 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-ticker.C:
			for _, d := range drivers {
				if err := node.Store.Append(d.Info().ID, d.Next(now)); err != nil {
					log.Printf("feed %s: %v", d.Info().ID, err)
				}
			}
		}
	}
}
