// Ablation: probes the design choices DESIGN.md §5 calls out —
// (1) cooperative weights w1/w2 of Eq. (6), (2) kNN environment clustering
// vs stale environments, (3) offline vs online environment definition and
// (4) terminal-only vs dense reward in the allocation MDP.
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"repro"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Println("building scenario...")
	cfg := dcta.DefaultScenarioConfig(1)
	cfg.HistoryContexts = 40
	cfg.EvalContexts = 8
	s, err := dcta.NewScenario(cfg)
	if err != nil {
		return err
	}

	// Ablation 1: the cooperative weights of Eq. (6). DCTA defines over the
	// scenario's store with the experiments' kNN policy (DefaultCRLConfig's K,
	// blended), the one the figures use.
	fmt.Println("\n── ablation 1: cooperative weights w1 (general) / w2 (local)")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "w1\tw2\tmean PT (s)")
	for _, w1 := range []float64{0, 0.25, 0.5, 0.75, 1} {
		d, err := dcta.NewDCTA(s.Store, dcta.DefaultCRLConfig(), s.Local)
		if err != nil {
			return err
		}
		d.W1, d.W2 = w1, 1-w1
		pt, err := meanPT(s, d)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%.2f\t%.2f\t%.2f\n", w1, 1-w1, pt)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Println("(the optimal Eq.-6 mix depends on how accurate each process is;")
	fmt.Println(" at the paper-scale scenario the balanced mix wins — see EXPERIMENTS.md)")

	// Ablation 2: environment clustering.
	fmt.Println("\n── ablation 2: kNN environment definition vs stale environment")
	mm, err := dcta.EnvMismatchPenalties(s)
	if err != nil {
		return err
	}
	fmt.Printf("captured importance: accurate %.4f | kNN-defined %.4f | stale %.4f\n",
		mm.AccurateObjective, mm.DefinedObjective, mm.StaleObjective)
	fmt.Printf("penalty without clustering: %.1f%%; with clustering: %.1f%%\n",
		mm.RLPenaltyPct, mm.CRLPenaltyPct)

	// Ablation 3: §VII offline (k-means) vs online (kNN) environment modes.
	fmt.Println("\n── ablation 3: offline vs online environment definition (§VII)")
	modes, err := dcta.OfflineVsOnlineModes(s, 6)
	if err != nil {
		return err
	}
	fmt.Printf("captured importance: accurate %.4f | online kNN %.4f | offline k-means %.4f\n",
		modes.AccurateObjective, modes.OnlineObjective, modes.OfflineObjective)
	fmt.Printf("penalties: online %.1f%%, offline %.1f%% (the paper adopts the online mode)\n",
		modes.OnlinePenaltyPct, modes.OfflinePenaltyPct)

	// Ablation 4: reward shaping in the allocation MDP.
	fmt.Println("\n── ablation 4: terminal-only vs dense reward (§III-D)")
	for _, dense := range []bool{false, true} {
		cfg := dcta.DefaultCRLConfig()
		cfg.Episodes = 60
		cfg.DenseReward = dense
		crl, err := dcta.NewCRL(s.Template.Clone(), s.Store, cfg)
		if err != nil {
			return err
		}
		res, err := crl.Train()
		if err != nil {
			return err
		}
		label := "terminal-only"
		if dense {
			label = "dense"
		}
		fmt.Printf("%-13s reward: mean episode return %.3f over %d episodes\n",
			label, res.MeanReward, res.Episodes)
	}
	return nil
}

func meanPT(s *dcta.Scenario, d *dcta.DCTAAllocator) (float64, error) {
	var sum float64
	for _, ep := range s.Eval {
		req, err := s.RequestFor(ep)
		if err != nil {
			return 0, err
		}
		res, err := d.Allocate(req)
		if err != nil {
			return 0, err
		}
		sim, err := dcta.Simulate(s.Cluster, req.Problem, res, s.Config.CoverageTarget)
		if err != nil {
			return 0, err
		}
		sum += sim.ProcessingTime
	}
	return sum / float64(len(s.Eval)), nil
}
