package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// ClusterIdentity is a shard's place in a cluster deployment: which node it
// is, how it sits on the routing ring, and which cluster keys it owns. The
// identity is informational plus cache-scoping — a shard still answers any
// cluster it is asked about (that is what lets the router degrade to a
// survivor instead of 5xxing when an owner dies); ownership scopes what the
// shard exports to joining peers and what it pulls when it boots.
type ClusterIdentity struct {
	// NodeID is the shard's stable ring placement key.
	NodeID string `json:"node_id"`
	// RingPositions is the shard's virtual-node count on the full ring.
	RingPositions int `json:"ring_positions"`
	// OwnedClusters are the store indices the shard owns on the full ring.
	OwnedClusters []int `json:"owned_clusters"`
	// OwnedFraction is the shard's share of the hash space.
	OwnedFraction float64 `json:"owned_fraction"`
	// ReplicaGroups is the fleet's owner count per cluster (R); 0 or 1 means
	// unreplicated.
	ReplicaGroups int `json:"replica_groups,omitempty"`
	// ReplicaClusters are the store indices the shard holds as a non-primary
	// owner (successor replica) on the full ring.
	ReplicaClusters []int `json:"replica_clusters,omitempty"`
}

// ClusterNodeStats is the cluster section of /v1/stats: identity plus the
// warm-handoff counters.
type ClusterNodeStats struct {
	ClusterIdentity
	// HandoffServes counts shard-scoped checkpoint exports served to peers.
	HandoffServes int64 `json:"handoff_serves"`
	// HandoffPulls counts policies this node installed from peer checkpoints.
	HandoffPulls int64 `json:"handoff_pulls"`
	// ReplicaInstalls/ReplicaStale/ReplicaHits mirror the cache's
	// replica-group counters for operators reading /v1/cluster.
	ReplicaInstalls int64 `json:"replica_installs"`
	ReplicaStale    int64 `json:"replica_stale"`
	ReplicaHits     int64 `json:"replica_hits"`
}

// SetClusterIdentity records the shard's cluster membership (shown in stats
// and /v1/cluster). Safe to call once at boot, before serving.
func (s *Server) SetClusterIdentity(id ClusterIdentity) {
	s.clusterMu.Lock()
	defer s.clusterMu.Unlock()
	id.OwnedClusters = append([]int(nil), id.OwnedClusters...)
	sort.Ints(id.OwnedClusters)
	id.ReplicaClusters = append([]int(nil), id.ReplicaClusters...)
	sort.Ints(id.ReplicaClusters)
	s.clusterID = &id
}

// ClusterIdentity returns the recorded membership, or nil when the server
// runs standalone.
func (s *Server) ClusterIdentity() *ClusterIdentity {
	s.clusterMu.Lock()
	defer s.clusterMu.Unlock()
	if s.clusterID == nil {
		return nil
	}
	id := *s.clusterID
	return &id
}

func (s *Server) clusterNodeStats() *ClusterNodeStats {
	id := s.ClusterIdentity()
	if id == nil {
		return nil
	}
	return &ClusterNodeStats{
		ClusterIdentity: *id,
		HandoffServes:   s.handoffServes.Load(),
		HandoffPulls:    s.handoffPulls.Load(),
		ReplicaInstalls: s.cache.replicaInstalls.Load(),
		ReplicaStale:    s.cache.replicaStale.Load(),
		ReplicaHits:     s.cache.replicaHits.Load(),
	}
}

// InstallFromPeerCheckpoint is the anti-entropy install path: a page of a
// peer's checkpoint export applied through the versioned idempotence gate
// (InstallReplicated), with role-aware provenance — clusters this node
// primary-owns install warm, the rest as replica copies — and installed
// entries counted as handoff pulls.
func (s *Server) InstallFromPeerCheckpoint(r io.Reader, primary func(cluster int) bool) (InstallResult, error) {
	res, err := s.InstallReplicated(r, primary)
	if res.Installed > 0 {
		s.handoffPulls.Add(int64(res.Installed))
	}
	return res, err
}

// parseClusterSet parses the /v1/checkpoint "clusters" query parameter: a
// comma-separated list of store indices. Empty means "everything".
func parseClusterSet(raw string) (map[int]bool, error) {
	if raw == "" {
		return nil, nil
	}
	set := make(map[int]bool)
	for _, part := range strings.Split(raw, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, err := strconv.Atoi(part)
		if err != nil || k < 0 {
			return nil, fmt.Errorf("bad cluster %q", part)
		}
		set[k] = true
	}
	return set, nil
}

// handleCheckpointExport serves GET /v1/checkpoint: the node's policy cache
// in checkpoint-v2 format, optionally filtered to ?clusters=3,17,42 — the
// shard-scoped export a joining peer pulls to boot warm. The chunked,
// resumable form adds ?after=K (clusters strictly greater than K, ascending)
// and ?limit=N (at most N entry sections): a cache larger than one GET
// converges over multiple pulls, each page safe to apply independently
// thanks to the per-section CRC and the receiver's version gate.
func (s *Server) handleCheckpointExport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET only"))
		return
	}
	q := r.URL.Query()
	keepSet, err := parseClusterSet(q.Get("clusters"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var keep func(int) bool
	if keepSet != nil {
		keep = func(k int) bool { return keepSet[k] }
	}
	after, limit := -1, 0
	if raw := q.Get("after"); raw != "" {
		if after, err = strconv.Atoi(raw); err != nil || after < -1 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad after %q", raw))
			return
		}
	}
	if raw := q.Get("limit"); raw != "" {
		if limit, err = strconv.Atoi(raw); err != nil || limit < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", raw))
			return
		}
	}
	// Buffer the checkpoint so an encoding failure can still answer 500;
	// exports are a page of policies, not bulk data.
	var buf bytes.Buffer
	if _, err := s.SaveCheckpointPage(&buf, keep, after, limit); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.handoffServes.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(buf.Bytes())
}

// handleClusterStatus serves GET /v1/cluster: the node's view of its own
// membership (the router serves the fleet-wide shard map under the same
// path).
func (s *Server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET only"))
		return
	}
	st := s.clusterNodeStats()
	if st == nil {
		writeJSON(w, http.StatusOK, map[string]any{"standalone": true})
		return
	}
	writeJSON(w, http.StatusOK, st)
}
