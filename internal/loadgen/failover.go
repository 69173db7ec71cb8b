package loadgen

import (
	"fmt"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
)

// FailoverResult is the warm-failover probe's aggregate: after killing the
// shard that primary-owns the most workload keys, how the replica-held
// answers for those keys came back.
type FailoverResult struct {
	// VictimID is the killed shard's ring identity.
	VictimID string
	// Requests is how many allocates were driven at the victim's ranges
	// while it was down.
	Requests int
	// Non2xx counts failed answers (the availability bar: should be zero —
	// the router retries onto the surviving replica).
	Non2xx int
	// Warm counts 200s answered by a resident policy (cache ∈ {hit, warm,
	// replica, speculative}) rather than a fresh demand training.
	Warm int
	// WarmFraction is Warm over the successful answers.
	WarmFraction float64
}

// FailoverProbe measures warm failover on a live in-process cluster: it waits
// for replication to settle, kills the shard that primary-owns the most
// workload keys, drives `requests` allocates at that shard's ranges through
// the router, classifies each answer, then restarts the victim and restores
// the fleet. The cluster must be fully live when the probe starts.
func FailoverProbe(topo *cluster.LocalCluster, store *core.EnvironmentStore, wl *Workload, requests int, logf func(format string, args ...any)) (*FailoverResult, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	ring := topo.Router().Ring()
	if got := len(ring.Nodes()); got != topo.Shards() {
		return nil, fmt.Errorf("failover probe needs a fully live fleet: %d/%d shards in the ring", got, topo.Shards())
	}

	// Partition the workload's CRL frames (the probe asserts on replica-held
	// policies) by primary owner and aim at the shard owning the most keys —
	// the worst-case single failure for this workload.
	frames := map[string][][]byte{}
	for i, req := range wl.Allocs {
		k, _, err := store.NearestIndex(req.Signature)
		if err != nil {
			return nil, fmt.Errorf("failover probe: key for request %d: %w", i, err)
		}
		owner := ring.Owner(k)
		frames[owner] = append(frames[owner], wl.CRLFrames[i])
	}
	victimID, most := "", 0
	for owner, fs := range frames {
		if len(fs) > most || (len(fs) == most && owner > victimID) {
			victimID, most = owner, len(fs)
		}
	}
	if most == 0 {
		return nil, fmt.Errorf("failover probe: no workload key resolves to a shard")
	}
	victim := -1
	for i := 0; i < topo.Shards(); i++ {
		if topo.ShardID(i) == victimID {
			victim = i
			break
		}
	}
	if victim < 0 {
		return nil, fmt.Errorf("failover probe: ring owner %q is not a local shard", victimID)
	}

	// The probe asserts on replica-held state, so the replicas must actually
	// hold it before the kill.
	if !topo.AwaitReplication(10 * time.Second) {
		return nil, fmt.Errorf("failover probe: replication queues did not settle")
	}
	if err := topo.KillShard(victim); err != nil {
		return nil, fmt.Errorf("failover probe: kill shard %s: %w", victimID, err)
	}
	logf("failover probe: killed %s (primary for %d/%d workload keys), driving %d requests at its ranges\n",
		victimID, most, len(wl.Allocs), requests)

	res := &FailoverResult{VictimID: victimID, Requests: requests}
	conn, err := DialFast(topo.Addr())
	if err != nil {
		return nil, fmt.Errorf("failover probe: dial router: %w", err)
	}
	victimFrames := frames[victimID]
	for i := 0; i < requests; i++ {
		code, body, err := conn.Do(victimFrames[i%len(victimFrames)])
		if err != nil {
			// The raw connection can be severed by the in-flight ejection;
			// redial once per failure and count the request against the run.
			conn.Close()
			if conn, err = DialFast(topo.Addr()); err != nil {
				return nil, fmt.Errorf("failover probe: redial router: %w", err)
			}
			res.Non2xx++
			continue
		}
		if code != http.StatusOK {
			res.Non2xx++
			continue
		}
		if answeredWarm(body) {
			res.Warm++
		}
	}
	conn.Close()
	if ok := requests - res.Non2xx; ok > 0 {
		res.WarmFraction = float64(res.Warm) / float64(ok)
	}

	// Restore the fleet so post-probe telemetry reads a healthy cluster.
	if _, err := topo.RestartShard(victim); err != nil {
		return nil, fmt.Errorf("failover probe: restart shard %s: %w", victimID, err)
	}
	topo.Router().ProbeOnce()
	if st := topo.Router().Stats(); st.LiveShards != topo.Shards() {
		return nil, fmt.Errorf("failover probe: %d/%d shards live after restart", st.LiveShards, topo.Shards())
	}
	logf("failover probe: %d requests, %d non-2xx, warm fraction %.3f; %s restarted and rejoined\n",
		res.Requests, res.Non2xx, res.WarmFraction, victimID)
	return res, nil
}
