// Quickstart: build a TATIM problem by hand, solve it with the knapsack
// reference and the cooperative pipeline, and simulate the processing time
// on the Raspberry-Pi testbed — the whole public API in ~100 lines.
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/mathx"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. A cluster: 4 Raspberry Pis + laptop controller (Fig. 8 topology).
	cluster, err := dcta.NewCluster(4)
	if err != nil {
		return err
	}

	// 2. A workload: 12 tasks with long-tail importance — a few matter a
	// lot, most barely at all (Observation 1).
	importance := []float64{0.9, 0.75, 0.6, 0.05, 0.04, 0.04, 0.03, 0.03, 0.02, 0.02, 0.01, 0.01}
	inputBits := make([]float64, len(importance))
	for i := range inputBits {
		inputBits[i] = 6e6 // 6 Mbit per task
	}
	problem, err := cluster.ProblemFor(importance, inputBits, 30 /* T seconds */)
	if err != nil {
		return err
	}

	// 3. Solve TATIM directly (Theorem 1: it is a multiple knapsack).
	exact, err := problem.SolveExact()
	if err != nil {
		return err
	}
	fmt.Printf("optimal captured importance: %.2f of %.2f\n",
		problem.Objective(exact), problem.TotalImportance())

	// 4. The data-driven path: a store of historical environments, a CRL
	// model, and a prediction for today's sensing signature.
	store := dcta.NewEnvironmentStore()
	rng := mathx.NewRand(1)
	caps := make([]float64, len(problem.Processors))
	for i, p := range problem.Processors {
		caps[i] = p.Capacity
	}
	for day := 0; day < 20; day++ {
		z := rng.Float64()
		hist := make([]float64, len(importance))
		for j := range hist {
			// Historical importance resembles today's, with daily noise.
			hist[j] = mathx.Clamp(importance[j]+rng.NormFloat64()*0.05, 0, 1)
		}
		if err := store.Add(&dcta.Environment{
			Importance: hist, Capacity: caps, Signature: []float64{z},
		}); err != nil {
			return err
		}
	}
	cfg := dcta.DefaultCRLConfig()
	cfg.Episodes = 40
	crl, err := dcta.NewCRL(problem, store, cfg)
	if err != nil {
		return err
	}
	if _, err := crl.Train(); err != nil {
		return err
	}
	allocation, env, err := crl.Predict([]float64{0.4})
	if err != nil {
		return err
	}
	fmt.Printf("CRL allocation captures %.2f (believed %.2f) importance\n",
		problem.Objective(allocation), sum(env.Importance, allocation))

	// 5. Simulate the processing time of the plan on the edge testbed.
	crlAlloc, err := dcta.NewCRLAllocator(crl, cfg)
	if err != nil {
		return err
	}
	res, err := crlAlloc.Allocate(dcta.Request{Problem: problem, Signature: []float64{0.4}})
	if err != nil {
		return err
	}
	sim, err := dcta.Simulate(cluster, problem, res, 0.8)
	if err != nil {
		return err
	}
	fmt.Printf("processing time on the edge: %.2f s (makespan %.2f s)\n",
		sim.ProcessingTime, sim.Makespan)
	return nil
}

func sum(importance []float64, a dcta.Allocation) float64 {
	var v float64
	for j, proc := range a {
		if proc != dcta.Unassigned && j < len(importance) {
			v += importance[j]
		}
	}
	return v
}
