package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/knapsack"
)

// Degraded-mode reasons (AllocateResponse.DegradedReason).
const (
	// DegradedTrainFailed: the cluster's policy training errored or panicked.
	DegradedTrainFailed = "train_failed"
	// DegradedTrainBudget: training ran past Config.TrainBudget; it keeps
	// going in the background while this answer ships.
	DegradedTrainBudget = "train_budget"
	// DegradedCircuitOpen: the cluster's breaker refuses trainings.
	DegradedCircuitOpen = "circuit_open"
	// DegradedSaturated: the global training gate had no room.
	DegradedSaturated = "train_saturated"
	// DegradedDeadline: the request deadline expired while waiting on the
	// policy path.
	DegradedDeadline = "deadline"
	// DegradedDraining: the server is draining; no new trainings start but
	// in-flight traffic still gets a feasible answer.
	DegradedDraining = "draining"
	// DegradedPolicyError: the warm policy path itself failed (environment
	// definition, or a rollout that errored or panicked); the cluster's
	// policy keeps serving later requests.
	DegradedPolicyError = "policy_error"
)

// degradedReason maps a policy-path error to the response tag.
func degradedReason(err error) string {
	switch {
	case errors.Is(err, ErrCircuitOpen):
		return DegradedCircuitOpen
	case errors.Is(err, ErrTrainSaturated):
		return DegradedSaturated
	case errors.Is(err, ErrTrainBudget):
		return DegradedTrainBudget
	case errors.Is(err, context.DeadlineExceeded):
		return DegradedDeadline
	default:
		return DegradedTrainFailed
	}
}

// fallbackAllocate is the degraded-mode allocator — the DCTA shape with the
// expensive learned F₁ replaced by the raw kNN-matched importance: define
// the environment by inverse-distance-weighted kNN over the historical
// store (no policy, no DQN), correct with the local SVM when one is fitted
// and the request carries features (w1·F₁ + w2·F₂, Eq. 6), and pack with
// the density-greedy knapsack solver. Every step is lock-light and runs in
// microseconds, so this path answers even while trainings fail, hang, or
// queue — a feasible allocation always exists (dropping everything is
// feasible), so well-formed requests never error here.
func (s *Server) fallbackAllocateInto(req AllocateRequest, cluster int, start time.Time, reason string, ws *allocWS) error {
	env, err := s.store.DefineBlended(req.Signature, s.cfg.ClusterNeighborhood)
	if err != nil {
		// Signature dimensions were validated against the store already;
		// reaching this is a server bug, not a client error.
		return fmt.Errorf("serve: fallback environment: %w", err)
	}
	prob := s.problemWithImportance(env.Importance)
	scores := make([]float64, len(prob.Tasks))
	for j := range scores {
		scores[j] = prob.Tasks[j].Importance
	}
	combined, err := alloc.CombineScores(s.localModel(), scores, req.Features, s.cfg.W1, s.cfg.W2)
	if err != nil {
		// A scoring failure only costs the local correction.
		combined = scores
	}
	instance, err := prob.ToKnapsack().WithValues(combined)
	if err != nil {
		return fmt.Errorf("serve: fallback scores: %w", err)
	}
	sol, err := knapsack.SolveGreedy(instance)
	if err != nil {
		return fmt.Errorf("serve: fallback pack: %w", err)
	}
	var predicted float64
	for j, proc := range sol.Assignment {
		if proc != core.Unassigned && j < len(env.Importance) {
			predicted += env.Importance[j]
		}
	}
	latency := s.cfg.Now().Sub(start)
	s.allocates.Add(1)
	s.degraded.Add(1)
	s.recordLatency(latency)
	resp := &ws.resp
	resp.Allocation = append(resp.Allocation[:0], sol.Assignment...)
	resp.Cluster = cluster
	resp.Cache = CacheBypass
	resp.Allocator = "greedy-fallback"
	resp.Mode = ModeDegraded
	resp.DegradedReason = reason
	resp.PredictedImportance = predicted
	resp.LatencyNanos = int64(latency)
	return nil
}
