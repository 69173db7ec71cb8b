// Command dcta-bench regenerates the paper's tables and figures as text
// tables. Each -fig value maps to one evaluation artifact (see DESIGN.md §4).
// Standard output is the same bytes on every run of one seed and scale; the
// wall-clock columns (the MTL table's fit times, Theorem 1's solver times)
// go to standard error.
//
//	dcta-bench -fig all           # everything
//	dcta-bench -fig 9 -scale full # Fig. 9 at paper scale
//	dcta-bench -fig 2 -seed 3     # Fig. 2 under a different seed
package main

import (
	"flag"
	"fmt"
	"io"
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
	if err := run(os.Stdout, os.Stderr, *fig, *seed, *scale); err != nil {
		fmt.Fprintln(os.Stderr, "dcta-bench:", err)
		os.Exit(1)
	}
}

// run prints the figures selected by fig on out and their wall-clock
// timings on timing.
func run(out, timing io.Writer, fig string, seed int64, scale string) error {
	cfg, err := dcta.ScaledScenarioConfig(seed, scale)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "building scenario (seed=%d scale=%s: %d tasks, %d workers, %d+%d epochs)...\n",
		seed, scale, cfg.Tasks, cfg.Workers, cfg.HistoryContexts, cfg.EvalContexts)
	s, err := dcta.NewScenario(cfg)
	if err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	all := fig == "all"
	ran := false
	for _, step := range []struct {
		key string
		fn  func(io.Writer, *dcta.Scenario) error
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
		{"mtl", func(out io.Writer, s *dcta.Scenario) error { return printMTLModes(out, timing, s) }},
		{"scaling", func(out io.Writer, _ *dcta.Scenario) error { return printScaling(out, timing) }},
		{"robustness", printRobustness},
	} {
		if all || fig == step.key {
			if err := step.fn(out, s); err != nil {
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

func header(out io.Writer, title string) {
	fmt.Fprintln(out)
	fmt.Fprintln(out, strings.Repeat("=", len(title)))
	fmt.Fprintln(out, title)
	fmt.Fprintln(out, strings.Repeat("=", len(title)))
}

func printFig2(out io.Writer, s *dcta.Scenario) error {
	r, err := dcta.Fig2LongTail(s)
	if err != nil {
		return err
	}
	header(out, "Fig. 2 — Task-importance distribution (long tail, Obs. 1)")
	fmt.Fprintf(out, "tasks: %d   Gini: %.3f   non-zero: %.1f%%\n",
		len(r.SortedImportance), r.Stats.Gini, r.Stats.NonZeroFraction*100)
	fmt.Fprintf(out, "top %.2f%% of tasks carry 80%% of total importance (paper: 12.72%%)\n",
		r.Stats.TopFractionFor80*100)
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "rank\timportance\tcumulative-share")
	for i, v := range r.SortedImportance {
		if i >= 15 && i < len(r.SortedImportance)-1 {
			continue // elide the tail for readability
		}
		fmt.Fprintf(w, "%d\t%.5f\t%.1f%%\n", i+1, v, r.CumulativeShare[i]*100)
	}
	return w.Flush()
}

func printFig3(out io.Writer, s *dcta.Scenario) error {
	r, err := dcta.Fig3AccurateVsRandom(s)
	if err != nil {
		return err
	}
	header(out, "Fig. 3 — Decision performance: accurate vs random allocation (Obs. 2)")
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "epoch\taccurate-H\trandom-H")
	for _, ep := range r.PerEpoch {
		fmt.Fprintf(w, "%s\t%.4f\t%.4f\n", ep.Label, ep.Accurate, ep.Random)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(out, "mean accurate %.4f vs random %.4f → improvement %.2f%% (paper: 45.68%%)\n",
		r.MeanAccurate, r.MeanRandom, r.ImprovementPct)
	return nil
}

func printFig45(out io.Writer, s *dcta.Scenario) error {
	rows, err := dcta.Fig45ImportanceByOperation(s)
	if err != nil {
		return err
	}
	header(out, "Figs. 4-5 — Importance mean/variation per machine × operation (Obs. 3)")
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "machine\toperation\tmean-importance\tstd-importance")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%.5f\t%.5f\n", r.Machine, r.Operation, r.MeanImportance, r.StdImportance)
	}
	return w.Flush()
}

func printPT(out io.Writer, title string, series *dcta.PTSeries, paperNote string) error {
	header(out, title)
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
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
		fmt.Fprintf(out, "DCTA vs %-4s: mean %.2fx, max %.2fx\n", b, sp.Mean, sp.Max)
	}
	fmt.Fprintln(out, paperNote)
	return nil
}

func printFig9(out io.Writer, s *dcta.Scenario) error {
	r, err := dcta.Fig9ProcessorSweep(s, nil)
	if err != nil {
		return err
	}
	return printPT(out, "Fig. 9 — Processing time vs number of processors", r,
		"(paper: mean 2.70/2.05/1.80x, max 3.24/2.32/2.01x vs RM/DML/CRL)")
}

func printFig10(out io.Writer, s *dcta.Scenario) error {
	r, err := dcta.Fig10DataSizeSweep(s, nil)
	if err != nil {
		return err
	}
	return printPT(out, "Fig. 10 — Processing time vs average input data size", r,
		"(paper at 500 Mb: 2.71/1.83/1.68x vs RM/DML/CRL)")
}

func printFig11(out io.Writer, s *dcta.Scenario) error {
	r, err := dcta.Fig11BandwidthSweep(s, nil)
	if err != nil {
		return err
	}
	return printPT(out, "Fig. 11 — Processing time vs bandwidth limit", r,
		"(paper: mean 2.68/1.94/1.71x vs RM/DML/CRL)")
}

func printMismatch(out io.Writer, s *dcta.Scenario) error {
	r, err := dcta.EnvMismatchPenalties(s)
	if err != nil {
		return err
	}
	header(out, "Inline — environment-accuracy penalties (§III-C, §IV-A)")
	fmt.Fprintf(out, "captured importance: accurate %.4f, kNN-defined %.4f, stale %.4f\n",
		r.AccurateObjective, r.DefinedObjective, r.StaleObjective)
	fmt.Fprintf(out, "stale-environment RL penalty: %.2f%% (paper: 46.28%%)\n", r.RLPenaltyPct)
	fmt.Fprintf(out, "CRL residual-mismatch penalty: %.2f%% (paper: 28.84%%)\n", r.CRLPenaltyPct)
	return nil
}

func printTableI(out io.Writer, s *dcta.Scenario) error {
	rows, err := dcta.TableIFeatures(s)
	if err != nil {
		return err
	}
	header(out, "Table I — local-process features")
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "feature\tmean\tstd")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.3f\t%.3f\n", r.Feature, r.Mean, r.Std)
	}
	return w.Flush()
}

func printModes(out io.Writer, s *dcta.Scenario) error {
	r, err := dcta.OfflineVsOnlineModes(s, 6)
	if err != nil {
		return err
	}
	header(out, "§VII — offline (k-means) vs online (kNN) environment definition")
	fmt.Fprintf(out, "captured importance: accurate %.4f | online %.4f | offline %.4f\n",
		r.AccurateObjective, r.OnlineObjective, r.OfflineObjective)
	fmt.Fprintf(out, "penalties: online %.2f%%, offline %.2f%%\n", r.OnlinePenaltyPct, r.OfflinePenaltyPct)
	return nil
}

func printMTLModes(out, timing io.Writer, s *dcta.Scenario) error {
	rows, err := dcta.MTLModeComparison(s)
	if err != nil {
		return err
	}
	title := "§V-B — MTL modes and base learners under data scarcity"
	header(out, title)
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "mode\tlearner\tfitted-tasks\tmean-H")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%d\t%.4f\n", r.Mode, r.Learner, r.FittedTasks, r.MeanH)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	header(timing, title+": wall clock")
	w = tabwriter.NewWriter(timing, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "mode\tlearner\tfit-seconds")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%.3f\n", r.Mode, r.Learner, r.FitSeconds)
	}
	return w.Flush()
}

func printScaling(out, timing io.Writer) error {
	points, err := dcta.SolverScaling(1, nil, 3)
	if err != nil {
		return err
	}
	title := "Theorem 1 — TATIM solver scaling (exact vs greedy)"
	header(out, title)
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "tasks\tgreedy-optimality")
	for _, p := range points {
		opt := "-"
		if p.ExactMicros > 0 {
			opt = fmt.Sprintf("%.3f", p.GreedyOptimality)
		}
		fmt.Fprintf(w, "%d\t%s\n", p.Tasks, opt)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	header(timing, title+": wall clock")
	w = tabwriter.NewWriter(timing, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "tasks\texact-µs\tgreedy-µs")
	for _, p := range points {
		exact := "-"
		if p.ExactMicros > 0 {
			exact = fmt.Sprintf("%.0f", p.ExactMicros)
		}
		fmt.Fprintf(w, "%d\t%s\t%.0f\n", p.Tasks, exact, p.GreedyMicros)
	}
	return w.Flush()
}

func printRobustness(out io.Writer, s *dcta.Scenario) error {
	points, err := dcta.RobustnessSweep(s, nil)
	if err != nil {
		return err
	}
	header(out, "Extension — PT under crash-stop worker failures")
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "fail-prob\tRM\tDML\tCRL\tDCTA")
	for _, p := range points {
		fmt.Fprintf(w, "%.2f\t%.2f\t%.2f\t%.2f\t%.2f\n",
			p.FailProb, p.MeanPT["RM"], p.MeanPT["DML"], p.MeanPT["CRL"], p.MeanPT["DCTA"])
	}
	return w.Flush()
}

func printModels(out io.Writer, s *dcta.Scenario) error {
	rows, err := dcta.LocalModelComparison(s)
	if err != nil {
		return err
	}
	header(out, "§IV-B — local-process model selection")
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "model\ttrain-acc\ttest-acc\t5-fold-cv")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.3f\t%.3f\t%.3f±%.3f\n",
			r.Model, r.TrainAcc, r.TestAcc, r.CVAcc, r.CVStd)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(out, "(paper selects SVM for its highest accuracy)")
	return nil
}
