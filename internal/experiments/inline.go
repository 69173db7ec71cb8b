package experiments

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/mathx"
)

// EnvMismatchResult reproduces the two inline environment-accuracy numbers:
// §III-C reports a 46.28% performance reduction when a plain RL model's
// environment is not accurate, and §IV-A a 28.84% reduction for CRL under
// residual mismatch.
type EnvMismatchResult struct {
	// AccurateObjective is the mean captured true importance when the
	// policy is given the true environment (reference).
	AccurateObjective float64
	// StaleObjective uses the most dissimilar historical environment —
	// what a non-clustered RL with a stale environment would see.
	StaleObjective float64
	// DefinedObjective uses the kNN-defined environment (CRL's own path).
	DefinedObjective float64
	// RLPenaltyPct = (accurate − stale)/accurate × 100.
	RLPenaltyPct float64
	// CRLPenaltyPct = (accurate − defined)/accurate × 100.
	CRLPenaltyPct float64
}

// EnvMismatchPenalties measures how much captured importance the trained
// allocation policy loses when its environment input is inaccurate: fully
// stale (plain RL with a fixed environment) vs kNN-defined (CRL). The
// clustered definition must recover a large share of the gap — that recovery
// is CRL's raison d'être.
func EnvMismatchPenalties(s *Scenario) (*EnvMismatchResult, error) {
	out := &EnvMismatchResult{}
	// allocateUnder models a converged allocation policy driven by a given
	// environment belief: keep the top fifth of tasks by believed
	// importance (the long-tail edge budget), then score the kept set
	// against the truth. A loose-capacity greedy would assign everything
	// and mask the belief entirely; the budget is what exposes it.
	allocateUnder := topBudgetCapture
	for _, ep := range s.Eval {
		prob := s.problemWithImportance(ep.Importance)
		// Accurate environment: the true importance.
		acc, err := allocateUnder(prob, ep.Importance)
		if err != nil {
			return nil, fmt.Errorf("accurate env: %w", err)
		}
		out.AccurateObjective += acc
		// Stale environment: the historically most dissimilar entry —
		// what a fixed-environment RL deployment degrades to over time.
		stale, err := farthestEnvironment(s, ep.Signature)
		if err != nil {
			return nil, err
		}
		st, err := allocateUnder(prob, stale.Importance)
		if err != nil {
			return nil, fmt.Errorf("stale env: %w", err)
		}
		out.StaleObjective += st
		// Defined environment: CRL's own kNN answer, which reads only the
		// store.
		defined, err := s.crlConfig().DefineEnvironment(s.Store, ep.Signature)
		if err != nil {
			return nil, fmt.Errorf("define env: %w", err)
		}
		df, err := allocateUnder(prob, defined.Importance)
		if err != nil {
			return nil, fmt.Errorf("defined env: %w", err)
		}
		out.DefinedObjective += df
	}
	n := float64(len(s.Eval))
	out.AccurateObjective /= n
	out.StaleObjective /= n
	out.DefinedObjective /= n
	if out.AccurateObjective > 0 {
		out.RLPenaltyPct = (out.AccurateObjective - out.StaleObjective) /
			out.AccurateObjective * 100
		out.CRLPenaltyPct = (out.AccurateObjective - out.DefinedObjective) /
			out.AccurateObjective * 100
	}
	return out, nil
}

// ModeComparisonResult compares the §VII environment-definition modes:
// online (kNN at prediction time, the paper's adopted mode) vs offline
// (k-means clustering in advance).
type ModeComparisonResult struct {
	// AccurateObjective / OnlineObjective / OfflineObjective are the mean
	// captured true importances under each definition.
	AccurateObjective float64
	OnlineObjective   float64
	OfflineObjective  float64
	// OnlinePenaltyPct and OfflinePenaltyPct are relative to accurate.
	OnlinePenaltyPct  float64
	OfflinePenaltyPct float64
}

// OfflineVsOnlineModes reproduces the §VII discussion: the online mode
// "guarantees a high prediction accuracy" while the offline mode risks
// "possibly low prediction accuracy due to the offline clustering".
func OfflineVsOnlineModes(s *Scenario, clusters int) (*ModeComparisonResult, error) {
	if clusters < 1 {
		clusters = 6
	}
	offline, err := core.NewOfflineStore(s.Store, clusters, s.Config.Seed+808)
	if err != nil {
		return nil, fmt.Errorf("offline store: %w", err)
	}
	out := &ModeComparisonResult{}
	top := func(truth *core.Problem, believed []float64) float64 {
		v, _ := topBudgetCapture(truth, believed)
		return v
	}
	for _, ep := range s.Eval {
		prob := s.problemWithImportance(ep.Importance)
		out.AccurateObjective += top(prob, ep.Importance)
		online, err := s.crlConfig().DefineEnvironment(s.Store, ep.Signature)
		if err != nil {
			return nil, fmt.Errorf("online define: %w", err)
		}
		out.OnlineObjective += top(prob, online.Importance)
		off, err := offline.Define(ep.Signature)
		if err != nil {
			return nil, fmt.Errorf("offline define: %w", err)
		}
		out.OfflineObjective += top(prob, off.Importance)
	}
	n := float64(len(s.Eval))
	out.AccurateObjective /= n
	out.OnlineObjective /= n
	out.OfflineObjective /= n
	if out.AccurateObjective > 0 {
		out.OnlinePenaltyPct = (out.AccurateObjective - out.OnlineObjective) /
			out.AccurateObjective * 100
		out.OfflinePenaltyPct = (out.AccurateObjective - out.OfflineObjective) /
			out.AccurateObjective * 100
	}
	return out, nil
}

// topBudgetCapture scores a believed importance ranking by the true
// importance its top-fifth budget captures (shared with
// EnvMismatchPenalties).
func topBudgetCapture(truth *core.Problem, believed []float64) (float64, error) {
	n := len(truth.Tasks)
	count := n / 5
	if count < 3 {
		count = 3
	}
	if count > n {
		count = n
	}
	order := make([]int, n)
	for j := range order {
		order[j] = j
	}
	sort.Slice(order, func(a, b int) bool {
		ba, bb := 0.0, 0.0
		if order[a] < len(believed) {
			ba = believed[order[a]]
		}
		if order[b] < len(believed) {
			bb = believed[order[b]]
		}
		if ba != bb {
			return ba > bb
		}
		return order[a] < order[b]
	})
	var captured float64
	for _, j := range order[:count] {
		captured += truth.Tasks[j].Importance
	}
	return captured, nil
}

// farthestEnvironment returns the stored environment with the most distant
// signature from z.
func farthestEnvironment(s *Scenario, z []float64) (*core.Environment, error) {
	all := s.Store.All()
	if len(all) == 0 {
		return nil, core.ErrEmptyStore
	}
	best := all[0]
	bestD := -1.0
	for _, e := range all {
		d := mathx.EuclideanDistance(z, e.Signature)
		if d > bestD {
			bestD = d
			best = e
		}
	}
	return best, nil
}
