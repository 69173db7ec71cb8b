package serve

import (
	"fmt"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/knapsack"
)

// Degraded-mode reasons (AllocateResponse.DegradedReason).
const (
	// DegradedDraining: the server is draining, but in-flight traffic still
	// gets a feasible answer.
	DegradedDraining = "draining"
	// DegradedPolicyError: the normal path failed for this request (its
	// environment could not be defined or scored).
	DegradedPolicyError = "policy_error"
)

// fallbackAllocateInto is the degraded-mode allocator — the DCTA shape over
// the whole store rather than the cluster's sub-store: define the
// environment by inverse-distance-weighted kNN over the historical store,
// correct with the local SVM when one is fitted and the request carries
// features (w1·F₁ + w2·F₂, Eq. 6), and pack with the density-greedy knapsack
// solver. A feasible allocation always exists (dropping everything is
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
