package pico

import (
	"pico/internal/cluster"
	"pico/internal/core"
	"pico/internal/nn"
	"pico/internal/partition"
	"pico/internal/queueing"
	"pico/internal/runtime"
	"pico/internal/schemes"
	"pico/internal/serve"
	"pico/internal/simulate"
	"pico/internal/telemetry"
	"pico/internal/tensor"
)

// Re-exported types. The implementation lives in internal packages; these
// aliases are the public surface.
type (
	// Model describes a CNN as the planner sees it (chain of layers /
	// graph blocks).
	Model = nn.Model
	// Layer is one operator in a Model.
	Layer = nn.Layer
	// Shape is a CHW feature-map extent.
	Shape = nn.Shape

	// Device is one edge device (capacity ϑ, regression coefficient α).
	Device = cluster.Device
	// Cluster is a device set behind one shared WLAN.
	Cluster = cluster.Cluster
	// CalibrationSample is one (FLOPs, seconds) measurement for fitting α.
	CalibrationSample = cluster.Sample

	// Plan is a pipelined cooperation plan (stages, strips, period,
	// latency).
	Plan = core.Plan
	// Stage is one pipeline stage of a Plan.
	Stage = core.Stage
	// PlanOptions configure the planner (latency bound T_lim, ablations).
	PlanOptions = core.Options
	// PlanStats aggregates per-device work/redundancy/busy time.
	PlanStats = core.Stats
	// CostModel evaluates stage costs (Eq. 2–11).
	CostModel = core.CostModel
	// CostCombine selects serialized (CostSum, Eq. 9) or overlapped
	// (CostMax) comm/compute combination.
	CostCombine = core.CostCombine

	// Range is a half-open feature-map row interval.
	Range = partition.Range
	// Rect is a rectangular feature-map region (2D grid tiles).
	Rect = partition.Rect
	// PartitionCalc computes receptive fields, region FLOPs and
	// redundancy for one model.
	PartitionCalc = partition.Calc

	// OFLOptions configure the optimal-fused-layer baseline.
	OFLOptions = schemes.OFLOptions
	// BFSOptions configure the exhaustive optimal search.
	BFSOptions = schemes.BFSOptions

	// ExecProfile is a scheme reduced to simulator form.
	ExecProfile = simulate.ExecProfile
	// SimResult aggregates one simulation run.
	SimResult = simulate.Result

	// Candidate is one scheme the adaptive switcher can select.
	Candidate = queueing.Candidate
	// Switcher picks the minimum-estimated-latency scheme (APICO).
	Switcher = queueing.Switcher
	// Estimator is the EWMA workload estimator (Eq. 15).
	Estimator = queueing.Estimator

	// Tensor is a CHW float32 feature map.
	Tensor = tensor.Tensor
	// Executor runs models (whole or tiled) with seed-derived weights.
	Executor = tensor.Executor

	// Worker is a TCP edge-device daemon.
	Worker = runtime.Worker
	// Pipeline executes a Plan over TCP workers.
	Pipeline = runtime.Pipeline
	// PipelineOptions configure a runtime pipeline.
	PipelineOptions = runtime.PipelineOptions
	// LocalCluster is an in-process set of loopback workers.
	LocalCluster = runtime.LocalCluster
	// TaskResult is one completed distributed inference.
	TaskResult = runtime.TaskResult
	// WorkerStat is one device's accumulated runtime activity.
	WorkerStat = runtime.WorkerStat
	// StageSpan is one task's occupancy of one pipeline stage.
	StageSpan = runtime.StageSpan
	// Health is a pipeline's point-in-time operational snapshot.
	Health = runtime.Health

	// Gateway is the HTTP serving front door (picoserve's engine).
	Gateway = serve.Gateway
	// GatewayConfig assembles a Gateway.
	GatewayConfig = serve.Config
	// GatewayStats is the gateway's /stats counter snapshot.
	GatewayStats = serve.Stats
	// SessionKey identifies one pooled pipeline: (model, plan, quant).
	SessionKey = serve.SessionKey
	// Admission is the M/D/1 load-shedding predicate of the gateway.
	Admission = queueing.Admission
	// AdmissionDecision is one admit/shed verdict with its predicted wait.
	AdmissionDecision = queueing.Decision

	// Telemetry is the streaming-percentile latency registry.
	Telemetry = telemetry.Registry
	// TelemetryOptions set the registry's window.
	TelemetryOptions = telemetry.Options
	// TelemetryKey identifies one latency series: (model, stage, device,
	// kind).
	TelemetryKey = telemetry.Key
	// TelemetrySeries is one keyed latency series (ring + kept samples).
	TelemetrySeries = telemetry.Series
	// TelemetryStats is one series' windowed percentile snapshot.
	TelemetryStats = telemetry.SeriesStats
	// SLOPolicy bounds windowed p99 and per-device skew.
	SLOPolicy = telemetry.Policy
	// SLOWatcher periodically evaluates an SLOPolicy over a Telemetry
	// registry and fires breach callbacks.
	SLOWatcher = telemetry.Watcher
	// SLOBreach is one detected policy violation.
	SLOBreach = telemetry.Breach
)

// Layer kinds, activations and block combination modes, re-exported for
// building custom models through the public API.
const (
	CostSum = core.CostSum
	CostMax = core.CostMax

	Conv           = nn.Conv
	MaxPool        = nn.MaxPool
	AvgPool        = nn.AvgPool
	GlobalAvgPool  = nn.GlobalAvgPool
	FullyConnected = nn.FullyConnected
	Block          = nn.Block

	NoAct     = nn.NoAct
	ReLU      = nn.ReLU
	LeakyReLU = nn.LeakyReLU

	Add    = nn.Add
	Concat = nn.Concat
)

// Layer constructors for common shapes.
var (
	// Conv3x3 builds a 3x3 stride-1 pad-1 convolution.
	Conv3x3 = nn.Conv3x3
	// Conv1x1 builds a 1x1 stride-1 convolution.
	Conv1x1 = nn.Conv1x1
	// MaxPool2x2 builds a 2x2 stride-2 max pool.
	MaxPool2x2 = nn.MaxPool2x2
	// FC builds a fully connected layer.
	FC = nn.FC
)

// Model builders for the paper's evaluation networks.
var (
	// VGG16 is the 13-conv/5-pool/3-fc ImageNet classifier.
	VGG16 = nn.VGG16
	// YOLOv2 is the 23-conv/5-pool detector (chain form, §V-A).
	YOLOv2 = nn.YOLOv2
	// ResNet34 is the residual-block graph CNN.
	ResNet34 = nn.ResNet34
	// InceptionV3 is the inception-block graph CNN with non-square
	// kernels.
	InceptionV3 = nn.InceptionV3
	// MobileNetV1 is the depthwise-separable edge CNN (extension beyond
	// the paper's four evaluation models).
	MobileNetV1 = nn.MobileNetV1
	// ToyChain builds the small chains of Table II.
	ToyChain = nn.ToyChain
	// Fig13Toy is the 8-conv/2-pool 64x64 model of Fig. 13.
	Fig13Toy = nn.Fig13Toy
)

// Cluster constructors.
var (
	// RPi4B profiles one Raspberry Pi 4B core at a CPU frequency.
	RPi4B = cluster.RPi4B
	// Homogeneous builds n identical Raspberry Pis behind 50 Mbps WiFi.
	Homogeneous = cluster.Homogeneous
	// PaperHeterogeneous is the paper's Table I testbed (2x1.2GHz,
	// 2x800MHz, 4x600MHz).
	PaperHeterogeneous = cluster.PaperHeterogeneous
	// Calibrate fits a device's α coefficient from measurements (Eq. 5).
	Calibrate = cluster.Calibrate
)

// Planner entry points.
var (
	// PlanPipeline runs the PICO planner (Algorithms 1 + 2).
	PlanPipeline = core.PlanPipeline
	// SingleDevice builds the one-device baseline plan.
	SingleDevice = core.SingleDevice
	// GridPlan builds the one-stage plan that runs the whole model as a
	// rows x cols grid of DeepThings-style tiles; NewPipeline executes it
	// like any other plan.
	GridPlan = core.GridPlan
	// NewCostModel exposes the stage cost model.
	NewCostModel = core.NewCostModel
	// SavePlan / LoadPlan serialize plans as self-contained JSON.
	SavePlan = core.SavePlan
	LoadPlan = core.LoadPlan
)

// Baseline schemes (§V-A). Each returns a *Plan priced as its PlanOptions
// say, so NewPipeline executes what the simulator prices.
var (
	// LayerWise is the MoDNN-style per-layer scheme.
	LayerWise = schemes.LayerWise
	// MeDNN is the capacity-aware layer-wise scheme (paper's [26]).
	MeDNN = schemes.MeDNN
	// EarlyFusedLayer is the DeepThings-style scheme (0 selects the
	// default fused prefix).
	EarlyFusedLayer = schemes.EarlyFusedLayer
	// EarlyFusedLayerGrid is the DeepThings scheme with its original 2D
	// grid tiles.
	EarlyFusedLayerGrid = schemes.EarlyFusedLayerGrid
	// GridShape factorizes a device count into a near-square tile grid.
	GridShape = schemes.GridShape
	// OptimalFusedLayer is the AOFL-style scheme.
	OptimalFusedLayer = schemes.OptimalFusedLayer
	// BFSOptimal is the exhaustive optimum (Table II / Fig. 13).
	BFSOptimal = schemes.BFSOptimal
	// PlanScheme builds a scheme's plan by name: lw, mednn, efl, efl-grid,
	// ofl, fused (capacity-aware OFL) or pico.
	PlanScheme = schemes.Plan
)

// Simulation entry points.
var (
	// ProfileFromPlan reduces a Plan to simulator form.
	ProfileFromPlan = simulate.FromPlan
	// RunOpenLoop simulates Poisson (or any sorted) arrivals.
	RunOpenLoop = simulate.RunOpenLoop
	// RunClosedLoop measures maximum throughput (back-to-back tasks).
	RunClosedLoop = simulate.RunClosedLoop
	// RunAdaptive simulates the APICO switching front-end.
	RunAdaptive = simulate.RunAdaptive
	// PoissonArrivals generates the paper's online arrival process.
	PoissonArrivals = simulate.PoissonArrivals
	// VariableRatePoisson generates a time-varying arrival process.
	VariableRatePoisson = simulate.VariableRatePoisson
)

// Adaptive switching (APICO, §IV-C).
var (
	// Theorem2Latency is the paper's M/D/1 latency estimate.
	Theorem2Latency = queueing.Theorem2Latency
	// NewSwitcher builds the scheme switcher.
	NewSwitcher = queueing.NewSwitcher
	// NewEstimator builds the EWMA workload estimator.
	NewEstimator = queueing.NewEstimator
)

// Tensor engine.
var (
	// NewExecutor builds a CNN executor with seed-derived weights.
	NewExecutor = tensor.NewExecutor
	// RandomInput generates a deterministic input tensor.
	RandomInput = tensor.RandomInput
	// TensorsEqual reports exact equality.
	TensorsEqual = tensor.Equal
)

// Distributed runtime.
var (
	// NewWorker starts a TCP worker daemon.
	NewWorker = runtime.NewWorker
	// StartLocalCluster launches n loopback workers in-process.
	StartLocalCluster = runtime.StartLocalCluster
	// NewPipeline executes a Plan over TCP workers.
	NewPipeline = runtime.NewPipeline
	// WithEmulatedSpeed throttles a worker to an effective MAC/s.
	WithEmulatedSpeed = runtime.WithEmulatedSpeed
	// NewGateway builds the HTTP serving gateway over a worker cluster.
	NewGateway = serve.New
	// NewTelemetry builds a streaming-percentile latency registry.
	NewTelemetry = telemetry.New
	// NewSLOWatcher builds an SLO watcher over a telemetry registry.
	NewSLOWatcher = telemetry.NewWatcher
)

// FullFeatureMap returns the Range covering all rows of height h.
func FullFeatureMap(h int) Range { return partition.Full(h) }

// Partition helpers.
var (
	// NewPartitionCalc builds a receptive-field/FLOPs calculator.
	NewPartitionCalc = partition.NewCalc
	// GridPartition splits an h x w map into a DeepThings-style tile grid.
	GridPartition = partition.GridPartition
	// EqualStrips splits h rows into p near-equal strips.
	EqualStrips = partition.Equal
)

// NewAPICO assembles the paper's APICO configuration for a model on a
// cluster: the PICO pipeline plus the one-stage optimal-fused-layer scheme
// ("we choose [AOFL] as the one-stage scheme", §IV-C), an EWMA workload
// estimator and a Theorem-2 switcher. The returned profiles are ordered
// [OFL, PICO] to match the switcher's candidates.
func NewAPICO(m *Model, c *Cluster, beta, windowSeconds float64) ([]*ExecProfile, *Switcher, *Estimator, error) {
	names := []string{"OFL", "PICO"}
	plans := make([]*Plan, len(names))
	profiles := make([]*ExecProfile, len(names))
	for i, name := range names {
		var err error
		if plans[i], err = schemes.Plan(name, m, c, core.Options{}); err != nil {
			return nil, nil, nil, err
		}
		profiles[i] = simulate.FromPlan(name, plans[i])
	}
	sw, err := schemes.APICO(names, plans)
	if err != nil {
		return nil, nil, nil, err
	}
	est, err := queueing.NewEstimator(beta, windowSeconds)
	if err != nil {
		return nil, nil, nil, err
	}
	return profiles, sw, est, nil
}
