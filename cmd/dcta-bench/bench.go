package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro"
	"repro/internal/mathx"
	"repro/internal/mlearn"
	"repro/internal/rl"
)

// benchReport is the machine-readable benchmark record written by
// -bench-json. The measurements mirror the repo's BenchmarkDQNStep,
// BenchmarkScenarioBuild and BenchmarkSVMTrain so the committed baseline
// (BENCH_PR2.json) is comparable with `go test -bench` output.
type benchReport struct {
	GoVersion       string  `json:"go_version"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	DQNStepNs       float64 `json:"dqn_step_ns"`
	ScenarioBuildNs float64 `json:"scenario_build_ns"`
	SVMTrainNs      float64 `json:"svm_train_ns"`
}

// writeBenchJSON runs the three key microbenchmarks and writes the report.
func writeBenchJSON(path string) error {
	rep := benchReport{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	var err error
	fmt.Println("bench: DQN observe/learn step (50 tasks × 9 processors)...")
	if rep.DQNStepNs, err = benchDQNStep(); err != nil {
		return fmt.Errorf("dqn step: %w", err)
	}
	fmt.Printf("bench: dqn_step_ns = %.0f\n", rep.DQNStepNs)
	fmt.Println("bench: scenario build (30 history + 6 eval contexts, 30 CRL episodes)...")
	if rep.ScenarioBuildNs, err = benchScenarioBuild(); err != nil {
		return fmt.Errorf("scenario build: %w", err)
	}
	fmt.Printf("bench: scenario_build_ns = %.0f\n", rep.ScenarioBuildNs)
	fmt.Println("bench: SVM local-process training (600×12)...")
	if rep.SVMTrainNs, err = benchSVMTrain(); err != nil {
		return fmt.Errorf("svm train: %w", err)
	}
	fmt.Printf("bench: svm_train_ns = %.0f\n", rep.SVMTrainNs)
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return err
	}
	fmt.Println("bench: wrote", path)
	return nil
}

// benchDQNStep is the step BENCH_PR2.json recorded: one Observe (replay add +
// batched learning step) of an all-zero state at the allocation MDP's
// dimensions, hidden [48], batch 8. It is kept as it was so that the file
// stays comparable; BenchmarkDQNStep measures a step of a served training.
func benchDQNStep() (float64, error) {
	stateSize := 2 * 50 * 9
	agent, err := rl.NewDQN(stateSize, 51, rl.DQNConfig{
		Hidden: []int{48}, BatchSize: 8, WarmupSteps: 1, Seed: 1,
	})
	if err != nil {
		return 0, err
	}
	state := make([]float64, stateSize)
	next := make([]float64, stateSize)
	tr := rl.Transition{
		State: state, Action: 3, Reward: 1, NextState: next,
		NextValid: []int{0, 1, 2}, Done: false,
	}
	const warmup, iters = 50, 2000
	for i := 0; i < warmup; i++ {
		if err := agent.Observe(tr); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := agent.Observe(tr); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / iters, nil
}

// benchScenarioBuild mirrors BenchmarkScenarioBuild: one end-to-end world
// construction at reduced epoch counts.
func benchScenarioBuild() (float64, error) {
	cfg := dcta.DefaultScenarioConfig(7)
	cfg.HistoryContexts = 30
	cfg.EvalContexts = 6
	cfg.CRLEpisodes = 30
	start := time.Now()
	if _, err := dcta.NewScenario(cfg); err != nil {
		return 0, err
	}
	return float64(time.Since(start).Nanoseconds()), nil
}

// benchSVMTrain mirrors BenchmarkSVMTrain: local-process SVM fitting at its
// experiment scale.
func benchSVMTrain() (float64, error) {
	rng := mathx.NewRand(5)
	n, dim := 600, 12
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = make([]float64, dim)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64()
		}
		if x[i][0] > 0 {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	d, err := mlearn.NewDataset(x, y)
	if err != nil {
		return 0, err
	}
	const iters = 5
	start := time.Now()
	for i := 0; i < iters; i++ {
		svm := mlearn.NewSVM()
		if err := svm.Fit(d); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / iters, nil
}
