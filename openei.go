// Package openei is the public façade of the OpenEI reproduction: a
// lightweight software platform that equips an edge with intelligent
// processing and data-sharing capability (Zhang et al., "OpenEI: An Open
// Framework for Edge Intelligence", ICDCS 2019).
//
// The paper's "deploy and play" promise is the New function: point it at a
// device profile and you get a Node with the three OpenEI components wired
// together —
//
//   - a package manager (inference, local/transfer training, real-time ML),
//   - a model selector (the ALEM-constrained optimizer of Equation 1),
//   - libei (the RESTful API of Figure 6) over the node's datastore,
//   - a serving engine whose pool of model replicas pull concurrent
//     inference requests off a bounded queue, coalescing them into batches
//     only while every replica is busy.
//
// A minimal deployment:
//
//	node, err := openei.New(openei.Config{NodeID: "kitchen-pi", Device: "rpi3"})
//	...
//	defer node.Close()
//	http.ListenAndServe(":8080", node.Handler())
//
// # Serving knobs
//
// Config.Serving tunes the inference serving path (Node.ServeInfer and the
// /ei_algorithms/serving/infer route):
//
//   - MaxBatch — the most queued requests a free replica takes as one
//     batch (default 8); batching is work-conserving, so nothing waits
//     for a batch to fill and a lone request runs at once;
//   - Replicas — model clones executing batches concurrently (default 2);
//   - QueueDepth — bounded per-model queue; a full queue rejects
//     immediately with ErrOverloaded, which libei maps to HTTP 429
//     (default 64);
//   - Procs — width of the process-wide parallel kernel pool that every
//     dense kernel (matmul, convolution, pooling, activations) shards
//     across (0 = all cores);
//   - ParallelGrain — the pool's serial cutoff in fused-op units; kernels
//     below it run on the submitting goroutine so tiny tensors skip
//     dispatch overhead (0 = library default);
//   - Tenants / DefaultTenant — multi-tenant admission and scheduling:
//     each TenantConfig declares a strict priority tier, a weighted fair
//     share within the tier, and an optional token-bucket rate; requests
//     carry their class via the infer route's &tenant= parameter (or
//     WithTenant in-process) and shed with HTTP 429 when their bucket or
//     the queue is exhausted, never starving a higher tier.
//
// Queue depth, batch sizes, latency counters, per-tenant counters, and
// kernel-pool utilization are exposed at GET /ei_metrics. Serving replicas additionally run a
// zero-allocation inference path: activations live in per-replica arena
// allocators, so steady-state request handling does not touch the GC.
package openei

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"openei/internal/alem"
	"openei/internal/apps"
	"openei/internal/autopilot"
	"openei/internal/datastore"
	"openei/internal/hardware"
	"openei/internal/libei"
	"openei/internal/nn"
	"openei/internal/pkgmgr"
	"openei/internal/plan"
	"openei/internal/runenv"
	"openei/internal/selector"
	"openei/internal/serving"
	"openei/internal/tensor"
)

// Re-exported types so downstream users can name the values flowing through
// the public API (the implementations live in internal packages).
type (
	// ALEM is the paper's <Accuracy, Latency, Energy, Memory> capability tuple.
	ALEM = alem.ALEM
	// Package is a deep-learning runtime profile (the Figure 5 second axis).
	Package = alem.Package
	// Device is an edge hardware profile (the Figure 5 third axis).
	Device = hardware.Device
	// Model is a neural network runnable by the package manager.
	Model = nn.Model
	// Tensor is the dense input/output tensor type.
	Tensor = tensor.Tensor
	// Dataset is a labelled training/evaluation set.
	Dataset = nn.Dataset
	// Store is the node's sensor data store behind /ei_data.
	Store = datastore.Store
	// Manager is the node's package manager.
	Manager = pkgmgr.Manager
	// Server is the node's libei HTTP API.
	Server = libei.Server
	// Client talks to a remote node's libei API.
	Client = libei.Client
	// Registration binds an algorithm into /ei_algorithms/{scenario}/{name}.
	Registration = libei.Registration
	// Requirements are the Equation 1 constraints for model selection.
	Requirements = selector.Requirements
	// Choice is a selected (model, package, device) point with its ALEM.
	Choice = selector.Choice
	// Candidate is a model artifact considered by the selector.
	Candidate = selector.Candidate
	// Bus is the ROS-style topic pub/sub bus of the running environment
	// (§IV.C).
	Bus = runenv.Bus
	// Scheduler is the TinyOS-style event-driven task scheduler (§IV.C).
	Scheduler = runenv.Scheduler
	// SchedulerTask is one run-to-completion unit for the Scheduler.
	SchedulerTask = runenv.Task
	// VCU allocates bounded shares of a device to applications
	// (OpenVDAP-style, §IV.C).
	VCU = runenv.VCU
	// VCURequest asks a VCU for a compute share and memory budget.
	VCURequest = runenv.Request
	// Monitor is the heartbeat failure detector for edge peers (§IV.C).
	Monitor = runenv.Monitor
	// Migrator moves computations off failed edges (§IV.C).
	Migrator = runenv.Migrator
	// ResultCache memoizes inference results (MUVR-style edge caching,
	// §V.C).
	ResultCache = pkgmgr.ResultCache
	// ServingEngine is the node's dynamic-batching inference engine:
	// per-model bounded queues drained by a replica pool that batches
	// whatever is waiting, fronted by /ei_algorithms/serving/infer.
	ServingEngine = serving.Engine
	// ServingConfig tunes the serving engine (MaxBatch, Replicas,
	// QueueDepth); the zero value means defaults.
	ServingConfig = serving.Config
	// ServingResult is one request's share of a batched inference.
	ServingResult = serving.Result
	// ServingStats is the per-model counter snapshot behind /ei_metrics.
	ServingStats = serving.ModelStats
	// TenantConfig declares one admission/scheduling class of the
	// multi-tenant serving engine (ServingConfig.Tenants): a strict
	// priority tier, a weighted fair share within the tier, and an
	// optional token-bucket admission rate.
	TenantConfig = serving.TenantConfig
	// TenantStats is one tenant's serving counter snapshot (admitted,
	// shed, expired, served, latency percentiles) behind /ei_metrics.
	TenantStats = serving.TenantStats
	// AutopilotPolicy is the operator-declared SLO (p95 latency target,
	// accuracy floor, memory cap) plus the control loop's hysteresis
	// knobs; a zero P95 leaves the autopilot disabled.
	AutopilotPolicy = autopilot.Policy
	// AutopilotTier is one rung of the runtime tier ladder: a loaded
	// model variant with its profiled ALEM coordinates.
	AutopilotTier = autopilot.TierSpec
	// AutopilotStatus is the control loop's /ei_metrics snapshot.
	AutopilotStatus = autopilot.Status
	// AutopilotPilot is the running SLO control loop.
	AutopilotPilot = autopilot.Pilot
	// Offloader executes requests on the edge→cloud fallback tier.
	Offloader = autopilot.Offloader
	// Backend names a compiled-plan execution backend. Serving replicas
	// compile loaded models into execution plans (fused op graphs); the
	// backend decides the kernel set: BackendFloat32 reproduces the
	// full-precision path, BackendInt8 runs genuine int8 dense/conv
	// kernels with calibrated activation quantization, and BackendInt4
	// serves nibble-packed weights (≈⅛ the float bytes, per-channel
	// scales) on the same int8 kernels. Tier names imply backends: a
	// "{model}-int8" tier is an int8 plan, "{model}-int4" an int4 plan.
	Backend = plan.Backend
)

// Compiled-plan execution backends.
const (
	BackendFloat32 = plan.Float32
	BackendInt8    = plan.Int8
	BackendInt4    = plan.Int4
)

// Serving engine errors, surfaced by Node.ServeInfer and mapped by libei to
// HTTP statuses (429, 408).
var (
	ErrOverloaded    = serving.ErrOverloaded
	ErrServeDeadline = serving.ErrDeadline
	ErrServingClosed = serving.ErrClosed
	ErrServeBadInput = serving.ErrBadInput
)

// Scheduler task priorities: urgent tasks drain before normal ones (the
// real-time ML lane of §III.B).
const (
	TaskNormal = runenv.Normal
	TaskUrgent = runenv.Urgent
)

// Selection objectives (§III.C): minimize latency by default, or optimize
// another ALEM dimension with the rest as constraints.
const (
	MinLatency  = selector.MinLatency
	MaxAccuracy = selector.MaxAccuracy
	MinEnergy   = selector.MinEnergy
	MinMemory   = selector.MinMemory
)

// ErrBadConfig is returned by New for invalid configurations.
var ErrBadConfig = errors.New("openei: bad config")

// Config describes one OpenEI deployment.
type Config struct {
	// NodeID names this edge (required).
	NodeID string
	// Device is the hardware profile name (see Devices); required.
	Device string
	// Package is the runtime profile name; default "eipkg".
	Package string
	// DataWindow is the realtime window per sensor; default 64.
	DataWindow int
	// Serving tunes the inference serving engine (batch size, replica
	// count, queue depth). The zero value uses defaults; see
	// ServingConfig.
	Serving ServingConfig
	// Autopilot is the SLO policy for runtime tier switching and
	// edge→cloud offload. It takes effect when EnableAutopilot is called
	// (the tier ladder needs trained models); a zero P95 disables the
	// loop entirely.
	Autopilot AutopilotPolicy
}

// Node is a deployed OpenEI edge: datastore + package manager + serving
// engine + libei.
type Node struct {
	ID      string
	Store   *Store
	Manager *Manager
	Server  *Server
	// Serving batches concurrent inference requests across model
	// replicas; it backs /ei_algorithms/serving/infer and /ei_metrics.
	Serving *ServingEngine
	// Pilot is the SLO control loop, nil until EnableAutopilot.
	Pilot *AutopilotPilot

	device hardware.Device
	pkg    alem.Package
	slo    AutopilotPolicy
}

// New deploys OpenEI for the given configuration ("any hardware … will
// become an intelligent edge after deploying OpenEI").
func New(cfg Config) (*Node, error) {
	if cfg.NodeID == "" {
		return nil, fmt.Errorf("%w: NodeID is required", ErrBadConfig)
	}
	dev, err := hardware.ByName(cfg.Device)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	pkgName := cfg.Package
	if pkgName == "" {
		pkgName = "eipkg"
	}
	pkg, err := alem.PackageByName(pkgName)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	store := datastore.New(cfg.DataWindow)
	mgr := pkgmgr.New(pkg, dev)
	srv := libei.NewServer(cfg.NodeID, store, mgr)
	eng := serving.NewEngine(mgr, cfg.Serving)
	srv.SetEngine(eng)
	return &Node{
		ID: cfg.NodeID, Store: store, Manager: mgr, Server: srv, Serving: eng,
		device: dev, pkg: pkg, slo: cfg.Autopilot,
	}, nil
}

// Close releases the node's resources (stops the autopilot, drains the
// serving engine, then stops the real-time scheduler).
func (n *Node) Close() {
	if n.Pilot != nil {
		n.Pilot.Close()
	}
	n.Serving.Close()
	n.Manager.Close()
}

// Handler returns the libei HTTP handler for serving.
func (n *Node) Handler() http.Handler { return n.Server }

// Device returns the node's hardware profile.
func (n *Node) Device() Device { return n.device }

// Package returns the node's runtime profile.
func (n *Node) Package() Package { return n.pkg }

// Register installs custom algorithms under /ei_algorithms.
func (n *Node) Register(regs ...Registration) error {
	return n.Server.RegisterAll(regs)
}

// LoadModel installs a model into the package manager; set quantize to
// install the int8 artifact when the package supports it — serving
// replicas of a quantized model compile to the int8 execution backend
// (real int8 kernels, not just smaller storage). Reloading under an
// existing name also resets that model's serving pipeline so replicas
// pick up the new weights.
func (n *Node) LoadModel(m *Model, quantize bool) error {
	if err := n.Manager.Load(m, pkgmgr.LoadOptions{Quantize: quantize}); err != nil {
		return err
	}
	n.Serving.Reset(m.Name)
	return nil
}

// LoadModelBackend is LoadModel with the serving backend named
// explicitly: BackendInt8 quantizes at load (the int8 artifact is what
// the backend executes), BackendInt4 keeps the float weights until plan
// compilation nibble-packs them, BackendFloat32 keeps full precision.
// It is the façade's backend knob; openei-server exposes it as -backend.
func (n *Node) LoadModelBackend(m *Model, backend Backend) error {
	switch backend {
	case BackendInt8, BackendInt4:
		if !n.pkg.SupportsInt8 {
			return fmt.Errorf("%w: package %s has no int8 kernels", ErrBadConfig, n.pkg.Name)
		}
		if err := n.Manager.Load(m, pkgmgr.LoadOptions{Backend: backend}); err != nil {
			return err
		}
		n.Serving.Reset(m.Name)
		return nil
	case BackendFloat32, "":
		return n.LoadModel(m, false)
	default:
		return fmt.Errorf("%w: unknown backend %q", ErrBadConfig, backend)
	}
}

// SelectModel runs the model selector over the node's own device: given
// trained candidate models and an evaluation set, it returns the best
// (model, package-variant) combination under the requirements — the
// processing-flow step of §III.E ("the model selector will choose a most
// suitable model … based on the developer's requirement and the current
// computing resource").
func (n *Node) SelectModel(models map[string]*Model, eval Dataset, req Requirements) (Choice, error) {
	prof := alem.NewProfiler(eval)
	cands := selector.Variants(models, n.pkg.SupportsInt8)
	return selector.Exhaustive(cands, []alem.Package{n.pkg}, []hardware.Device{n.device}, req, prof)
}

// DeployTiers runs the paper's Equation-1 machinery once at deploy time
// to build the autopilot's runtime tier ladder: every candidate model (and
// its int8 variant, when the package supports int8) is ALEM-profiled on
// this node's device, the Pareto frontier is computed, rungs violating the
// SLO policy's accuracy floor or memory cap are dropped, and each
// surviving variant is loaded into the package manager under its tier name
// ("{model}", "{model}-int8", or "{model}-int4"). The returned ladder
// (best accuracy first) is what EnableAutopilot switches across at
// runtime.
func (n *Node) DeployTiers(models map[string]*Model, eval Dataset, pol AutopilotPolicy) ([]AutopilotTier, error) {
	prof := alem.NewProfiler(eval)
	cands := selector.Variants(models, n.pkg.SupportsInt8)
	choices, err := selector.Table(cands, []alem.Package{n.pkg}, []hardware.Device{n.device}, prof)
	if err != nil {
		return nil, err
	}
	tiers := autopilot.PlanTiers(selector.Pareto(choices), nil, pol)
	if len(tiers) == 0 {
		return nil, fmt.Errorf("openei: no tier of %d candidates satisfies the SLO policy (floor %.3f)",
			len(models), pol.AccuracyFloor)
	}
	for _, t := range tiers {
		base := strings.TrimSuffix(strings.TrimSuffix(t.Model, "-int8"), "-int4")
		src, ok := models[base]
		if !ok {
			return nil, fmt.Errorf("openei: tier %q has no source model %q", t.Model, base)
		}
		clone, err := src.Clone()
		if err != nil {
			return nil, err
		}
		clone.Name = t.Model
		if err := n.LoadModelBackend(clone, Backend(t.Backend)); err != nil {
			return nil, err
		}
	}
	return tiers, nil
}

// EnableAutopilot starts the SLO control loop from Config.Autopilot over
// the given tier ladder (usually DeployTiers' result): the alias is the
// model name clients request, hot-swapped across tiers as the measured
// p95 crosses the SLO; off, when non-nil, is the edge→cloud fallback used
// once even the cheapest tier misses it (see NewRemoteOffloader). The
// pilot is wired into libei — /ei_algorithms/serving/infer dispatches
// through it and /ei_metrics gains the "autopilot" block.
func (n *Node) EnableAutopilot(alias string, tiers []AutopilotTier, off Offloader) (*AutopilotPilot, error) {
	if n.slo.P95 <= 0 {
		return nil, fmt.Errorf("%w: Config.Autopilot.P95 is zero (autopilot disabled)", ErrBadConfig)
	}
	p, err := autopilot.New(n.Serving, alias, tiers, n.slo, off)
	if err != nil {
		return nil, err
	}
	n.Server.SetAutopilot(p)
	p.Start()
	n.Pilot = p
	return p, nil
}

// NewRemoteOffloader returns an Offloader that executes requests against
// a remote serving endpoint (an openei-cloud -serve instance, a beefier
// edge, or a gateway); model, when non-empty, overrides the model name
// requested remotely.
func NewRemoteOffloader(baseURL, model string) Offloader {
	return &libei.RemoteOffloader{Client: libei.NewClient(baseURL), Model: model}
}

// DeploySelected loads the chosen model variant into the node.
func (n *Node) DeploySelected(models map[string]*Model, c Choice) error {
	m, ok := models[c.ModelName]
	if !ok {
		return fmt.Errorf("openei: selected model %q not in candidate set", c.ModelName)
	}
	return n.LoadModel(m, c.Quantized)
}

// EnableSafety registers the VAPS algorithms (Figure 4's public-safety
// URLs) against the given camera sensor and loaded model.
func (n *Node) EnableSafety(modelName, cameraID string, labels []string, firearmClass int) error {
	return n.Register(apps.Safety(apps.SafetyConfig{
		Store: n.Store, Manager: n.Manager, ModelName: modelName,
		DefaultCamera: cameraID, Labels: labels, FirearmClass: firearmClass,
	})...)
}

// EnableVehicles registers the CAV tracking algorithm.
func (n *Node) EnableVehicles(cameraID string, window int) error {
	return n.Register(apps.Vehicles(apps.VehiclesConfig{
		Store: n.Store, DefaultCamera: cameraID, Window: window,
	})...)
}

// EnableHome registers the smart-home power monitor.
func (n *Node) EnableHome(modelName, meterID string, labels []string) error {
	return n.Register(apps.Home(apps.HomeConfig{
		Store: n.Store, Manager: n.Manager, ModelName: modelName,
		DefaultMeter: meterID, Labels: labels,
	})...)
}

// EnableHealth registers the connected-health algorithms.
func (n *Node) EnableHealth(modelName, imuID string, labels []string, fallClass int) error {
	return n.Register(apps.Health(apps.HealthConfig{
		Store: n.Store, Manager: n.Manager, ModelName: modelName,
		DefaultIMU: imuID, Labels: labels, FallClass: fallClass,
	})...)
}

// EnableMask registers the §V.A privacy-masking algorithm
// (/ei_algorithms/safety/mask): the subject region of the camera frame
// is blanked so the frame can leave the edge without private content.
func (n *Node) EnableMask(cameraID string) error {
	return n.Register(apps.Mask(apps.MaskConfig{
		Store: n.Store, DefaultCamera: cameraID,
	})...)
}

// NewBus returns a running-environment pub/sub bus (§IV.C).
func NewBus() *Bus { return runenv.NewBus() }

// NewScheduler returns a running event-driven scheduler with the given
// queue capacity (≤0 means 256). Call Close to join its worker.
func NewScheduler(queueCap int) *Scheduler { return runenv.NewScheduler(queueCap) }

// NewVCU returns a resource allocator over the given device.
func NewVCU(d Device) *VCU { return runenv.NewVCU(d) }

// AttachVCU exposes the allocator's state through GET /ei_resources —
// the paper's "every resource, including the … computing resource …
// [is] represented by a URL".
func (n *Node) AttachVCU(v *VCU) { n.Server.SetVCU(v) }

// NewMonitor returns a heartbeat failure detector with the given silence
// timeout (≤0 means 3 s).
func NewMonitor(timeout time.Duration) *Monitor { return runenv.NewMonitor(timeout) }

// NewMigrator returns a computation migrator over node capacities
// (node → effective FLOPS).
func NewMigrator(capacity map[string]float64) *Migrator { return runenv.NewMigrator(capacity) }

// NewResultCache returns an inference result cache (MUVR-style, §V.C)
// holding capacity entries that expire after ttl (≤0 means never).
func NewResultCache(capacity int, ttl time.Duration) *ResultCache {
	return pkgmgr.NewResultCache(capacity, ttl)
}

// CachedInfer is Infer through a ResultCache: bit-identical repeated
// inputs are served from cache. The second return reports a cache hit.
func (n *Node) CachedInfer(c *ResultCache, modelName string, x *Tensor) ([]int, []float64, bool, error) {
	res, hit, err := c.Infer(n.Manager, modelName, x)
	if err != nil {
		return nil, nil, false, err
	}
	return res.Classes, res.Confidences, hit, nil
}

// TransferLearn personalizes a loaded model on local data (Dataflow 3) and
// resets the model's serving pipeline so replicas serve the personalized
// weights.
func (n *Node) TransferLearn(modelName string, data Dataset, epochs int, seed int64) error {
	if err := n.Manager.TransferLearn(modelName, data, 1, epochs, rand.New(rand.NewSource(seed))); err != nil {
		return err
	}
	n.Serving.Reset(modelName)
	return nil
}

// Infer runs a loaded model on a batched input at normal priority and
// returns predicted classes with confidences.
func (n *Node) Infer(modelName string, x *Tensor) ([]int, []float64, error) {
	res, err := n.Manager.Infer(modelName, x)
	if err != nil {
		return nil, nil, err
	}
	return res.Classes, res.Confidences, nil
}

// ServeInfer pushes one single-sample request through the serving engine:
// a free model replica executes it at once, batched with whatever else
// was already queued. Under overload it fails fast with ErrOverloaded; a
// deadline (ServeInferWithin) that lapses in the queue fails with
// ErrServeDeadline.
func (n *Node) ServeInfer(modelName string, x *Tensor) (ServingResult, error) {
	return n.Serving.Infer(context.Background(), modelName, x)
}

// ServeInferWithin is ServeInfer with a per-request deadline.
func (n *Node) ServeInferWithin(modelName string, x *Tensor, d time.Duration) (ServingResult, error) {
	return n.Serving.InferWithDeadline(modelName, x, d)
}

// SetExitThreshold flips the live early-exit confidence knob on a served
// model: samples whose per-step classifier confidence reaches thr retire
// before consuming the full recurrent window. Values outside (0, 1]
// disable early exit. Reports whether the model's compiled plan supports
// the knob at all (always false for feed-forward models). The serving
// result's StepsUsed/TotalSteps and the per-exit histograms in
// /ei_metrics show the effect.
func (n *Node) SetExitThreshold(modelName string, thr float64) (bool, error) {
	return n.Serving.SetExitThreshold(modelName, thr)
}

// WithTenant attributes serving requests made with the returned context
// to the named tenant class (see ServingConfig.Tenants); unattributed
// requests ride the default class.
func WithTenant(ctx context.Context, tenant string) context.Context {
	return serving.WithTenant(ctx, tenant)
}

// NewTensor builds an input tensor from raw values (copied) and a shape;
// batched model inputs have the sample count as the first dimension.
func NewTensor(data []float32, shape ...int) (*Tensor, error) {
	return tensor.NewFrom(append([]float32(nil), data...), shape...)
}

// Devices lists the built-in hardware catalog.
func Devices() []Device { return hardware.Catalog() }

// Packages lists the built-in runtime profiles.
func Packages() []Package { return alem.Packages() }

// Dial returns a client for a remote node's libei API.
func Dial(baseURL string) *Client { return libei.NewClient(baseURL) }

// DefaultRequirements is the walk-through default of §III.E: accuracy-
// oriented selection with a soft real-time latency budget.
func DefaultRequirements() Requirements {
	return Requirements{Objective: MaxAccuracy, MaxLatency: 100 * time.Millisecond}
}
