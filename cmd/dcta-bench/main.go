// Command dcta-bench regenerates the paper's tables and figures as text
// tables. Each -fig value maps to one evaluation artifact (see DESIGN.md §4):
//
//	dcta-bench -fig all           # everything
//	dcta-bench -fig 9 -scale full # Fig. 9 at paper scale
//	dcta-bench -fig 2 -seed 3     # Fig. 2 under a different seed
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"text/tabwriter"

	"repro"
)

func main() {
	var (
		fig   = flag.String("fig", "all", "figure to regenerate: 2,3,45,9,10,11,mismatch,table1,models,modes,mtl,scaling,robustness,all")
		seed  = flag.Int64("seed", 1, "experiment seed")
		scale = flag.String("scale", "default", "scenario scale: fast, default, full")
	)
	flag.Parse()
	if err := run(*fig, *seed, *scale); err != nil {
		fmt.Fprintln(os.Stderr, "dcta-bench:", err)
		os.Exit(1)
	}
}

func run(fig string, seed int64, scale string) error {
	cfg, err := dcta.ScaledScenarioConfig(seed, scale)
	if err != nil {
		return err
	}
	fmt.Printf("building scenario (seed=%d scale=%s: %d tasks, %d workers, %d+%d epochs)...\n",
		seed, scale, cfg.Tasks, cfg.Workers, cfg.HistoryContexts, cfg.EvalContexts)
	s, err := dcta.NewScenario(cfg)
	if err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	all := fig == "all"
	ran := false
	for _, step := range []struct {
		key string
		fn  func(*dcta.Scenario) error
	}{
		{"2", printFig2},
		{"3", printFig3},
		{"45", printFig45},
		{"9", printFig9},
		{"10", printFig10},
		{"11", printFig11},
		{"mismatch", printMismatch},
		{"table1", printTableI},
		{"models", printModels},
		{"modes", printModes},
		{"mtl", printMTLModes},
		{"scaling", printScaling},
		{"robustness", printRobustness},
	} {
		if all || fig == step.key {
			if err := step.fn(s); err != nil {
				return fmt.Errorf("fig %s: %w", step.key, err)
			}
			ran = true
		}
	}
	if !ran {
		return fmt.Errorf("unknown figure %q", fig)
	}
	return nil
}

func header(title string) {
	fmt.Println()
	fmt.Println(strings.Repeat("=", len(title)))
	fmt.Println(title)
	fmt.Println(strings.Repeat("=", len(title)))
}

func printFig2(s *dcta.Scenario) error {
	r, err := dcta.Fig2LongTail(s)
	if err != nil {
		return err
	}
	header("Fig. 2 — Task-importance distribution (long tail, Obs. 1)")
	fmt.Printf("tasks: %d   Gini: %.3f   non-zero: %.1f%%\n",
		len(r.SortedImportance), r.Stats.Gini, r.Stats.NonZeroFraction*100)
	fmt.Printf("top %.2f%% of tasks carry 80%% of total importance (paper: 12.72%%)\n",
		r.Stats.TopFractionFor80*100)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "rank\timportance\tcumulative-share")
	for i, v := range r.SortedImportance {
		if i >= 15 && i < len(r.SortedImportance)-1 {
			continue // elide the tail for readability
		}
		fmt.Fprintf(w, "%d\t%.5f\t%.1f%%\n", i+1, v, r.CumulativeShare[i]*100)
	}
	return w.Flush()
}

func printFig3(s *dcta.Scenario) error {
	r, err := dcta.Fig3AccurateVsRandom(s)
	if err != nil {
		return err
	}
	header("Fig. 3 — Decision performance: accurate vs random allocation (Obs. 2)")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "epoch\taccurate-H\trandom-H")
	for _, ep := range r.PerEpoch {
		fmt.Fprintf(w, "%s\t%.4f\t%.4f\n", ep.Label, ep.Accurate, ep.Random)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("mean accurate %.4f vs random %.4f → improvement %.2f%% (paper: 45.68%%)\n",
		r.MeanAccurate, r.MeanRandom, r.ImprovementPct)
	return nil
}

func printFig45(s *dcta.Scenario) error {
	rows, err := dcta.Fig45ImportanceByOperation(s)
	if err != nil {
		return err
	}
	header("Figs. 4-5 — Importance mean/variation per machine × operation (Obs. 3)")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "machine\toperation\tmean-importance\tstd-importance")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%.5f\t%.5f\n", r.Machine, r.Operation, r.MeanImportance, r.StdImportance)
	}
	return w.Flush()
}

func printPT(title string, series *dcta.PTSeries, paperNote string) error {
	header(title)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "%s\tRM\tDML\tCRL\tDCTA\n", series.XLabel)
	for _, p := range series.Points {
		fmt.Fprintf(w, "%g\t%.2f\t%.2f\t%.2f\t%.2f\n",
			p.X, p.MeanPT["RM"], p.MeanPT["DML"], p.MeanPT["CRL"], p.MeanPT["DCTA"])
	}
	if err := w.Flush(); err != nil {
		return err
	}
	bases := make([]string, 0, len(series.SpeedupVs))
	for b := range series.SpeedupVs {
		bases = append(bases, b)
	}
	sort.Strings(bases)
	for _, b := range bases {
		sp := series.SpeedupVs[b]
		fmt.Printf("DCTA vs %-4s: mean %.2fx, max %.2fx\n", b, sp.Mean, sp.Max)
	}
	fmt.Println(paperNote)
	return nil
}

func printFig9(s *dcta.Scenario) error {
	r, err := dcta.Fig9ProcessorSweep(s, nil)
	if err != nil {
		return err
	}
	return printPT("Fig. 9 — Processing time vs number of processors", r,
		"(paper: mean 2.70/2.05/1.80x, max 3.24/2.32/2.01x vs RM/DML/CRL)")
}

func printFig10(s *dcta.Scenario) error {
	r, err := dcta.Fig10DataSizeSweep(s, nil)
	if err != nil {
		return err
	}
	return printPT("Fig. 10 — Processing time vs average input data size", r,
		"(paper at 500 Mb: 2.71/1.83/1.68x vs RM/DML/CRL)")
}

func printFig11(s *dcta.Scenario) error {
	r, err := dcta.Fig11BandwidthSweep(s, nil)
	if err != nil {
		return err
	}
	return printPT("Fig. 11 — Processing time vs bandwidth limit", r,
		"(paper: mean 2.68/1.94/1.71x vs RM/DML/CRL)")
}

func printMismatch(s *dcta.Scenario) error {
	r, err := dcta.EnvMismatchPenalties(s)
	if err != nil {
		return err
	}
	header("Inline — environment-accuracy penalties (§III-C, §IV-A)")
	fmt.Printf("captured importance: accurate %.4f, kNN-defined %.4f, stale %.4f\n",
		r.AccurateObjective, r.DefinedObjective, r.StaleObjective)
	fmt.Printf("stale-environment RL penalty: %.2f%% (paper: 46.28%%)\n", r.RLPenaltyPct)
	fmt.Printf("CRL residual-mismatch penalty: %.2f%% (paper: 28.84%%)\n", r.CRLPenaltyPct)
	return nil
}

func printTableI(s *dcta.Scenario) error {
	rows, err := dcta.TableIFeatures(s)
	if err != nil {
		return err
	}
	header("Table I — local-process features")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "feature\tmean\tstd")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.3f\t%.3f\n", r.Feature, r.Mean, r.Std)
	}
	return w.Flush()
}

func printModes(s *dcta.Scenario) error {
	r, err := dcta.OfflineVsOnlineModes(s, 6)
	if err != nil {
		return err
	}
	header("§VII — offline (k-means) vs online (kNN) environment definition")
	fmt.Printf("captured importance: accurate %.4f | online %.4f | offline %.4f\n",
		r.AccurateObjective, r.OnlineObjective, r.OfflineObjective)
	fmt.Printf("penalties: online %.2f%%, offline %.2f%%\n", r.OnlinePenaltyPct, r.OfflinePenaltyPct)
	return nil
}

func printMTLModes(s *dcta.Scenario) error {
	rows, err := dcta.MTLModeComparison(s)
	if err != nil {
		return err
	}
	header("§V-B — MTL modes and base learners under data scarcity")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "mode\tlearner\tfitted-tasks\tmean-H\tfit-seconds")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%d\t%.4f\t%.3f\n",
			r.Mode, r.Learner, r.FittedTasks, r.MeanH, r.FitSeconds)
	}
	return w.Flush()
}

func printScaling(*dcta.Scenario) error {
	points, err := dcta.SolverScaling(1, nil, 3)
	if err != nil {
		return err
	}
	header("Theorem 1 — TATIM solver scaling (exact vs greedy)")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "tasks\texact-µs\tgreedy-µs\tgreedy-optimality")
	for _, p := range points {
		exact := "-"
		opt := "-"
		if p.ExactMicros > 0 {
			exact = fmt.Sprintf("%.0f", p.ExactMicros)
			opt = fmt.Sprintf("%.3f", p.GreedyOptimality)
		}
		fmt.Fprintf(w, "%d\t%s\t%.0f\t%s\n", p.Tasks, exact, p.GreedyMicros, opt)
	}
	return w.Flush()
}

func printRobustness(s *dcta.Scenario) error {
	points, err := dcta.RobustnessSweep(s, nil)
	if err != nil {
		return err
	}
	header("Extension — PT under crash-stop worker failures")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "fail-prob\tRM\tDML\tCRL\tDCTA")
	for _, p := range points {
		fmt.Fprintf(w, "%.2f\t%.2f\t%.2f\t%.2f\t%.2f\n",
			p.FailProb, p.MeanPT["RM"], p.MeanPT["DML"], p.MeanPT["CRL"], p.MeanPT["DCTA"])
	}
	return w.Flush()
}

func printModels(s *dcta.Scenario) error {
	rows, err := dcta.LocalModelComparison(s)
	if err != nil {
		return err
	}
	header("§IV-B — local-process model selection")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "model\ttrain-acc\ttest-acc\t5-fold-cv")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.3f\t%.3f\t%.3f±%.3f\n",
			r.Model, r.TrainAcc, r.TestAcc, r.CVAcc, r.CVStd)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Println("(paper selects SVM for its highest accuracy)")
	return nil
}
