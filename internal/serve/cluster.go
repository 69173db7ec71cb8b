package serve

import (
	"fmt"
	"net/http"
	"sort"
)

// ClusterIdentity is a shard's place in a cluster deployment: which node it
// is, how it sits on the routing ring, and which cluster keys it owns. The
// identity is informational — a shard answers any cluster it is asked about
// (that is what lets the router degrade to a survivor instead of 5xxing when
// an owner dies).
type ClusterIdentity struct {
	// NodeID is the shard's stable ring placement key.
	NodeID string `json:"node_id"`
	// RingPositions is the shard's virtual-node count on the full ring.
	RingPositions int `json:"ring_positions"`
	// OwnedClusters are the store indices the shard owns on the full ring.
	OwnedClusters []int `json:"owned_clusters"`
	// OwnedFraction is the shard's share of the hash space.
	OwnedFraction float64 `json:"owned_fraction"`
}

// SetClusterIdentity records the shard's cluster membership (shown in stats
// and /v1/cluster). The membership manager calls it on every view change.
func (s *Server) SetClusterIdentity(id ClusterIdentity) {
	s.clusterMu.Lock()
	defer s.clusterMu.Unlock()
	id.OwnedClusters = append([]int(nil), id.OwnedClusters...)
	sort.Ints(id.OwnedClusters)
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

// handleClusterStatus serves GET /v1/cluster: the node's view of its own
// membership (the router serves the fleet-wide shard map under the same
// path).
func (s *Server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET only"))
		return
	}
	st := s.ClusterIdentity()
	if st == nil {
		writeJSON(w, http.StatusOK, map[string]any{"standalone": true})
		return
	}
	writeJSON(w, http.StatusOK, st)
}
