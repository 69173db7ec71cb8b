package cluster

import (
	"bytes"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/rawhttp"
	"repro/internal/serve"
)

// DefaultHandoffTimeout bounds one peer checkpoint pull.
const DefaultHandoffTimeout = 10 * time.Second

// DefaultReplicaGroups is the default owner count per cluster range (R):
// a primary plus one successor replica, so any single shard death leaves a
// warm copy of every trained policy.
const DefaultReplicaGroups = 2

// DefaultHandoffPageLimit is how many policy sections one anti-entropy GET
// asks for. Caches larger than a page converge over multiple ?after= pulls.
const DefaultHandoffPageLimit = 64

// PullWarmState boots a joining shard warm: it asks each peer for the
// checkpoint-v2 sections of exactly the clusters this shard owns — as
// primary or as successor replica — and installs whatever comes back, so a
// join or rejoin moves trained policies instead of repaying their training
// budgets. Installs run through the versioned idempotence gate with
// role-aware provenance: primary-owned clusters land warm, replica-owned
// ones land as replica copies (TTL-exempt). Returns how many policies were
// installed.
//
// Each peer is drained in pages of pageLimit sections (?after= cursoring),
// so a cache larger than one GET still converges; pageLimit <= 0 uses
// DefaultHandoffPageLimit.
//
// Failures are soft by design — an unreachable peer, a torn stream, a
// corrupt section — all of it just leaves some clusters cold, and the
// shard's own cold path retrains them on demand. The per-section CRC
// framing of the v2 format is what makes applying a partial transfer safe.
func PullWarmState(s *serve.Server, peers []Shard, primary, replica []int, pageLimit int, timeout time.Duration, logf func(string, ...any)) int {
	owned := make([]int, 0, len(primary)+len(replica))
	owned = append(owned, primary...)
	owned = append(owned, replica...)
	sort.Ints(owned)
	if len(owned) == 0 || len(peers) == 0 {
		return 0
	}
	if pageLimit <= 0 {
		pageLimit = DefaultHandoffPageLimit
	}
	if timeout <= 0 {
		timeout = DefaultHandoffTimeout
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	primarySet := make(map[int]bool, len(primary))
	for _, k := range primary {
		primarySet[k] = true
	}
	isPrimary := func(k int) bool { return primarySet[k] }
	installed := 0
	for _, p := range peers {
		conn, err := rawhttp.Dial(p.Addr)
		if err != nil {
			logf("cluster: handoff: peer %s (%s) unreachable: %v", p.ID, p.Addr, err)
			continue
		}
		conn.Timeout = timeout
		// Page through the peer's export: ?after= resumes past the last
		// cluster seen, and a short page (fewer sections than asked) means
		// the peer is drained.
		after := -1
		for {
			code, body, err := conn.Do(rawhttp.BuildGetFrame(checkpointPath(owned, after, pageLimit)))
			if err != nil || code != http.StatusOK {
				logf("cluster: handoff: peer %s pull failed: code=%d err=%v", p.ID, code, err)
				break
			}
			res, err := s.InstallFromPeerCheckpoint(bytes.NewReader(body), isPrimary)
			if err != nil {
				logf("cluster: handoff: peer %s checkpoint: %v", p.ID, err)
				break
			}
			installed += res.Installed
			if res.Sections < pageLimit || res.MaxCluster <= after {
				break
			}
			after = res.MaxCluster
		}
		conn.Close()
	}
	return installed
}

// checkpointPath renders the paged, shard-scoped export URL for a cluster
// set: clusters > after, at most limit sections (limit <= 0 means all).
func checkpointPath(clusters []int, after, limit int) string {
	var b []byte
	b = append(b, "/v1/checkpoint?clusters="...)
	for i, k := range clusters {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(k), 10)
	}
	if after >= 0 {
		b = append(b, "&after="...)
		b = strconv.AppendInt(b, int64(after), 10)
	}
	if limit > 0 {
		b = append(b, "&limit="...)
		b = strconv.AppendInt(b, int64(limit), 10)
	}
	return string(b)
}
