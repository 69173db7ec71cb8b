// Package dcta is the public facade of this repository: a Go implementation
// of "Data-driven Task Allocation for Multi-task Transfer Learning on the
// Edge" (Chen, Zheng, Hu, Wang, Liu — IEEE ICDCS 2019).
//
// The paper allocates multi-task transfer-learning (MTL) work across
// heterogeneous edge devices by task importance: the measured drop in final
// decision performance when a task is not conducted (Definition 1). The
// allocation problem (TATIM, Definition 4) is a 0-1 multiply-constrained
// multiple knapsack; because task importance varies with the environment,
// the paper solves it with a Data-driven Cooperative Task Allocation (DCTA)
// pipeline: a Clustered Reinforcement Learning general process (kNN
// environment definition + Deep Q-Network, Algorithm 1) corrected by an SVM
// local process over domain features (Table I), combined per Eq. (6).
//
// Layout:
//
//   - the TATIM problem, allocation MDP, environment store and CRL live in
//     internal/core — re-exported here;
//   - the four §V allocation strategies (RM, DML, CRL, DCTA) live in
//     internal/alloc;
//   - the green-building chiller substrate replacing the paper's
//     proprietary dataset lives in internal/building, with the MTL engine
//     and task importance in internal/mtl;
//   - the Raspberry-Pi testbed simulator lives in internal/edgesim;
//   - one harness per paper figure/table lives in internal/experiments.
//
// Quickstart (see examples/quickstart):
//
//	scn, err := dcta.NewScenario(dcta.DefaultScenarioConfig(1))
//	...
//	series, err := dcta.Fig9ProcessorSweep(scn, nil)
//
// Everything is stdlib-only and deterministic per seed.
package dcta

import (
	"repro/internal/alloc"
	"repro/internal/building"
	"repro/internal/core"
	"repro/internal/edgesim"
	"repro/internal/experiments"
	"repro/internal/mtl"
)

// Core TATIM types (Definitions 2-4 and §III-D).
type (
	// Problem is a TATIM instance: tasks, processors, and the time limit T.
	Problem = core.Problem
	// TaskSpec is one allocatable task with importance I_j, time t_j and
	// resource v_j.
	TaskSpec = core.TaskSpec
	// Processor is one edge processor with capacity V_p.
	Processor = core.Processor
	// Allocation maps each task to a processor index or Unassigned.
	Allocation = core.Allocation
	// Environment is the RL environment of §III-D (importance × capacity).
	Environment = core.Environment
	// EnvironmentStore is the historical environment set ℰ of §III-C.
	EnvironmentStore = core.EnvironmentStore
	// CRL is the Clustered Reinforcement Learning model of Algorithm 1.
	CRL = core.CRL
	// CRLConfig tunes CRL training and environment definition.
	CRLConfig = core.CRLConfig
	// AllocEnv is the allocation episode MDP.
	AllocEnv = core.AllocEnv
)

// Unassigned marks a task dropped from the allocation.
const Unassigned = core.Unassigned

// Allocation strategies of §V.
type (
	// Allocator is the shared strategy interface.
	Allocator = alloc.Allocator
	// Request is one allocation query.
	Request = alloc.Request
	// Result is an allocator's plan plus decision-cost estimate.
	Result = alloc.Result
	// RandomMapping is the RM baseline.
	RandomMapping = alloc.RandomMapping
	// DML is the distributed-machine-learning baseline.
	DML = alloc.DML
	// CRLAllocator wraps CRL as an §V strategy.
	CRLAllocator = alloc.CRLAllocator
	// DCTAAllocator is the paper's cooperative allocator (Eq. 6).
	DCTAAllocator = alloc.DCTA
	// LocalModel is the SVM local process F₂.
	LocalModel = alloc.LocalModel
	// LocalSample is one local-process training example.
	LocalSample = alloc.LocalSample
	// OracleGreedy allocates with known true importance (Fig. 3's
	// "accurate" allocator).
	OracleGreedy = alloc.OracleGreedy
)

// Building substrate and MTL engine.
type (
	// Trace is a generated multi-year chiller-plant operation dataset.
	Trace = building.Trace
	// TraceConfig parameterizes dataset generation.
	TraceConfig = building.Config
	// MTLEngine owns the 50 transfer-learning tasks and their models.
	MTLEngine = mtl.Engine
	// MTLEngineConfig tunes the engine.
	MTLEngineConfig = mtl.EngineConfig
	// Task is one (chiller, load band) transfer-learning task.
	Task = mtl.Task
	// PlantContext is one decision epoch across buildings.
	PlantContext = mtl.PlantContext
	// LongTailStats summarizes an importance distribution (Fig. 2).
	LongTailStats = mtl.LongTailStats
)

// Edge testbed simulator.
type (
	// Cluster is the star-topology Raspberry-Pi testbed of Fig. 8.
	Cluster = edgesim.Cluster
	// SimResult carries the PT metric for one simulated allocation.
	SimResult = edgesim.SimResult
)

// Experiment harnesses (one per paper figure/table).
type (
	// Scenario is the end-to-end experimental world.
	Scenario = experiments.Scenario
	// ScenarioConfig sizes it.
	ScenarioConfig = experiments.ScenarioConfig
	// PTSeries is a processing-time figure (Figs. 9-11).
	PTSeries = experiments.PTSeries
	// Fig2Result is the long-tail analysis of Fig. 2.
	Fig2Result = experiments.Fig2Result
	// Fig3Result compares accurate vs random allocation (Fig. 3).
	Fig3Result = experiments.Fig3Result
	// Fig45Row is one machine × operation cell of Figs. 4-5.
	Fig45Row = experiments.Fig45Row
	// EnvMismatchResult reproduces the §III-C / §IV-A inline numbers.
	EnvMismatchResult = experiments.EnvMismatchResult
	// TableIRow summarizes one Table-I feature.
	TableIRow = experiments.TableIRow
	// ModelComparisonRow is one §IV-B local-model candidate.
	ModelComparisonRow = experiments.ModelComparisonRow
	// ModeComparisonResult compares §VII offline vs online modes.
	ModeComparisonResult = experiments.ModeComparisonResult
	// RobustnessPoint is one fault-rate point of the robustness extension.
	RobustnessPoint = experiments.RobustnessPoint
	// MTLModeRow evaluates one §V-B MTL mode/learner combination.
	MTLModeRow = experiments.MTLModeRow
	// ScalingPoint times the TATIM solvers at one problem size.
	ScalingPoint = experiments.ScalingPoint
	// MTLMode selects the multi-task learning regime.
	MTLMode = mtl.Mode
	// MTLLearner selects the per-task base model.
	MTLLearner = mtl.Learner
	// NodeFault is a crash-stop worker failure for the fault simulator.
	NodeFault = edgesim.NodeFault
	// OfflineStore is the §VII offline (k-means) environment definition.
	OfflineStore = core.OfflineStore
)

// Construction helpers.
var (
	// GenerateTrace builds the synthetic building dataset.
	GenerateTrace = building.Generate
	// DefaultTraceConfig mirrors the paper's dataset shape.
	DefaultTraceConfig = building.DefaultConfig
	// NewMTLEngine builds the task engine over a trace.
	NewMTLEngine = mtl.NewEngine
	// DefaultMTLEngineConfig is the paper-scale engine configuration.
	DefaultMTLEngineConfig = mtl.DefaultEngineConfig
	// SampleContexts draws decision epochs from a trace.
	SampleContexts = mtl.SampleContexts
	// AnalyzeLongTail computes Fig.2-style distribution statistics.
	AnalyzeLongTail = mtl.AnalyzeLongTail
	// NewEnvironmentStore creates an empty historical store ℰ.
	NewEnvironmentStore = core.NewEnvironmentStore
	// NewCRL builds a Clustered Reinforcement Learning model.
	NewCRL = core.NewCRL
	// DefaultCRLConfig is the experiments' CRL configuration.
	DefaultCRLConfig = core.DefaultCRLConfig
	// NewAllocEnv builds the §III-D allocation MDP for a problem.
	NewAllocEnv = core.NewAllocEnv
	// NewRandomMapping builds the RM baseline.
	NewRandomMapping = alloc.NewRandomMapping
	// NewDML builds the DML baseline.
	NewDML = alloc.NewDML
	// NewCRLAllocator wraps a CRL model as an allocator.
	NewCRLAllocator = alloc.NewCRLAllocator
	// NewDCTA builds the cooperative allocator.
	NewDCTA = alloc.NewDCTA
	// NewLocalModel builds the SVM local process.
	NewLocalModel = alloc.NewLocalModel
	// NewOracleGreedy builds the importance oracle.
	NewOracleGreedy = alloc.NewOracleGreedy
	// SamplesFromDecision labels local-process training data.
	SamplesFromDecision = alloc.SamplesFromDecision
	// NewCluster builds the Fig. 8 testbed with n Raspberry-Pi workers.
	NewCluster = edgesim.NewCluster
	// Simulate measures the PT of an allocation on a cluster.
	Simulate = edgesim.Simulate
	// NewScenario builds the full experimental world.
	NewScenario = experiments.NewScenario
	// DefaultScenarioConfig is the paper-scale scenario configuration.
	DefaultScenarioConfig = experiments.DefaultScenarioConfig
	// ScaledScenarioConfig maps a -scale preset (fast, default, full) to a
	// scenario configuration.
	ScaledScenarioConfig = experiments.ScaledScenarioConfig
	// Fig2LongTail regenerates Fig. 2.
	Fig2LongTail = experiments.Fig2LongTail
	// Fig3AccurateVsRandom regenerates Fig. 3.
	Fig3AccurateVsRandom = experiments.Fig3AccurateVsRandom
	// Fig45ImportanceByOperation regenerates Figs. 4-5.
	Fig45ImportanceByOperation = experiments.Fig45ImportanceByOperation
	// Fig9ProcessorSweep regenerates Fig. 9.
	Fig9ProcessorSweep = experiments.Fig9ProcessorSweep
	// Fig10DataSizeSweep regenerates Fig. 10.
	Fig10DataSizeSweep = experiments.Fig10DataSizeSweep
	// Fig11BandwidthSweep regenerates Fig. 11.
	Fig11BandwidthSweep = experiments.Fig11BandwidthSweep
	// EnvMismatchPenalties regenerates the §III-C / §IV-A inline numbers.
	EnvMismatchPenalties = experiments.EnvMismatchPenalties
	// TableIFeatures regenerates Table I.
	TableIFeatures = experiments.TableIFeatures
	// LocalModelComparison regenerates the §IV-B model selection.
	LocalModelComparison = experiments.LocalModelComparison
	// OfflineVsOnlineModes reproduces the §VII mode discussion.
	OfflineVsOnlineModes = experiments.OfflineVsOnlineModes
	// RobustnessSweep measures PT under crash-stop worker failures.
	RobustnessSweep = experiments.RobustnessSweep
	// MTLModeComparison evaluates the §V-B MTL modes and learners.
	MTLModeComparison = experiments.MTLModeComparison
	// SolverScaling times exact vs greedy TATIM solving across sizes.
	SolverScaling = experiments.SolverScaling
	// SampleFaults draws crash-stop faults for SimulateWithFaults.
	SampleFaults = edgesim.SampleFaults
	// SimulateWithFaults measures PT under worker failures.
	SimulateWithFaults = edgesim.SimulateWithFaults
	// LoadCRL restores a persisted CRL policy.
	LoadCRL = core.LoadCRL
	// NewOfflineStore pre-clusters a store per the §VII offline mode.
	NewOfflineStore = core.NewOfflineStore
)

// MethodOrder is the canonical RM/DML/CRL/DCTA table ordering.
var MethodOrder = experiments.MethodOrder
