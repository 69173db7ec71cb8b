package serve

// Replica-group replication: the serve-side half of the cluster tier's R=2
// ownership. After every successful demand training (and the first promotion
// of a speculative policy) the primary owner pushes the cluster's policy
// snapshot to its replica owners over a bounded, retrying, strictly
// asynchronous queue. The wire format is the checkpoint-v2 section framing —
// magic, CRC-framed header, one CRC-framed entry per cluster — POSTed to
// /v1/replicate; the receiver installs each entry through the versioned
// idempotence rule (newer trainedAt wins, stale pushes are no-ops), so
// pushes can repeat, reorder, or race local trainings safely.
//
// The availability contract: replication never blocks the allocate path.
// Enqueue is a non-blocking channel send — a full queue (slow or dead
// replica) degrades that training to unreplicated and counts it in
// replication.dropped rather than applying backpressure.

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/rawhttp"
)

// Replication defaults.
const (
	// DefaultReplicationQueue bounds pending replication jobs; overflow
	// degrades to unreplicated.
	DefaultReplicationQueue = 256
	// DefaultReplicationRetries is the per-peer retry budget beyond the
	// first attempt.
	DefaultReplicationRetries = 2
	// DefaultReplicationTimeout bounds one push round trip.
	DefaultReplicationTimeout = 2 * time.Second
	// DefaultReplicationBackoff spaces retry attempts.
	DefaultReplicationBackoff = 25 * time.Millisecond
)

// ReplicationConfig wires a server's replication sender.
type ReplicationConfig struct {
	// PeersFor returns the replica peers' addresses for a cluster key —
	// typically the ring's successor owners minus this node. Empty means the
	// cluster has no replica (single-shard fleet) and the job is a no-op.
	// It runs on every push, so a resolver that reads a swapped member
	// snapshot re-targets pushes as membership moves.
	PeersFor func(cluster int) []string
	// QueueLen bounds pending replication jobs (default 256). Overflow drops
	// the job (the training stays unreplicated) — never blocks.
	QueueLen int
	// Retries is the per-peer retry budget beyond the first attempt
	// (default 2).
	Retries int
	// RetryBackoff spaces retries (default 25ms).
	RetryBackoff time.Duration
	// Timeout bounds one push round trip (default 2s).
	Timeout time.Duration
	// Send overrides the transport (tests inject blackholes and fakes). The
	// default POSTs the snapshot to /v1/replicate on the peer over a fresh
	// rawhttp connection.
	Send func(addr string, snapshot []byte) error
	// Logf sinks replication errors (default: the server's Logf).
	Logf func(format string, args ...any)
}

// replicator is the background push queue: one sender goroutine drains
// cluster keys and ships each key's current snapshot to its replica peers.
type replicator struct {
	s   *Server
	cfg ReplicationConfig

	jobs chan int
	stop chan struct{}
	done chan struct{}

	enqueued atomic.Int64 // jobs accepted onto the queue
	jobsDone atomic.Int64 // jobs fully processed (pushed, failed, or empty)
	pushes   atomic.Int64 // successful per-peer pushes
	dropped  atomic.Int64 // jobs refused by a full queue
	errors   atomic.Int64 // per-peer pushes that exhausted their retries
}

// EnableReplication starts the replication sender. Call once, after
// SetClusterIdentity and before serving; Drain stops the sender. The
// receiver side (POST /v1/replicate) is always mounted and needs no
// enabling.
func (s *Server) EnableReplication(cfg ReplicationConfig) error {
	if cfg.PeersFor == nil {
		return fmt.Errorf("serve: replication needs PeersFor")
	}
	if s.repl != nil {
		return fmt.Errorf("serve: replication already enabled")
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = DefaultReplicationQueue
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	} else if cfg.Retries == 0 {
		cfg.Retries = DefaultReplicationRetries
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = DefaultReplicationBackoff
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultReplicationTimeout
	}
	if cfg.Logf == nil {
		cfg.Logf = s.cfg.Logf
	}
	if cfg.Send == nil {
		cfg.Send = func(addr string, snapshot []byte) error {
			conn, err := rawhttp.Dial(addr)
			if err != nil {
				return err
			}
			defer conn.Close()
			conn.Timeout = cfg.Timeout
			code, body, err := conn.Do(rawhttp.BuildFrame("/v1/replicate", snapshot))
			if err != nil {
				return err
			}
			if code != http.StatusOK {
				return fmt.Errorf("peer answered %d: %s", code, body)
			}
			return nil
		}
	}
	r := &replicator{
		s:    s,
		cfg:  cfg,
		jobs: make(chan int, cfg.QueueLen),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	s.repl = r
	s.cache.onReplicate = r.enqueue
	go r.run()
	return nil
}

// enqueue is the cache's onReplicate hook: strictly non-blocking, so the
// training goroutine (and through it the allocate path) never waits on a
// slow replica.
func (r *replicator) enqueue(cluster int) {
	select {
	case r.jobs <- cluster:
		r.enqueued.Add(1)
	default:
		r.dropped.Add(1)
	}
}

func (r *replicator) run() {
	defer close(r.done)
	for {
		select {
		case <-r.stop:
			return
		case cluster := <-r.jobs:
			r.push(cluster)
			r.jobsDone.Add(1)
		}
	}
}

// push snapshots one cluster's policy and ships it to every replica peer
// with bounded retries. The snapshot is taken at push time, not enqueue
// time, so a queue of stale jobs for a retrained cluster ships the newest
// version (and the receiver's version gate makes the repeats no-ops).
func (r *replicator) push(cluster int) {
	peers := r.cfg.PeersFor(cluster)
	if len(peers) == 0 {
		return
	}
	var buf bytes.Buffer
	n, err := r.s.SaveCheckpointPage(&buf, func(k int) bool { return k == cluster }, -1, 0)
	if err != nil || n == 0 {
		// The entry was evicted or invalidated between training and push;
		// nothing to replicate.
		return
	}
	for _, peer := range peers {
		if r.sendWithRetry(peer, buf.Bytes()) {
			r.pushes.Add(1)
		} else {
			r.errors.Add(1)
			r.cfg.Logf("serve: replicate cluster %d to %s: push failed (replica stays behind until anti-entropy)", cluster, peer)
		}
	}
}

func (r *replicator) sendWithRetry(addr string, snapshot []byte) bool {
	for attempt := 0; ; attempt++ {
		if err := r.cfg.Send(addr, snapshot); err == nil {
			return true
		}
		if attempt >= r.cfg.Retries {
			return false
		}
		select {
		case <-r.stop:
			return false
		case <-time.After(r.cfg.RetryBackoff):
		}
	}
}

// settled reports whether every accepted job has been fully processed — the
// quiescence check tests poll before killing a primary.
func (r *replicator) settled() bool {
	return r.enqueued.Load() == r.jobsDone.Load()
}

// stopReplication signals the sender to exit. Idempotent; called from Drain.
func (s *Server) stopReplication() {
	if s.repl == nil {
		return
	}
	s.replStop.Do(func() { close(s.repl.stop) })
}

// ReplicationSettled reports whether the replication queue is fully drained
// (trivially true when replication is not enabled).
func (s *Server) ReplicationSettled() bool {
	if s.repl == nil {
		return true
	}
	return s.repl.settled()
}

// ReplicationStats is the replication section of /v1/stats (present only
// when the sender is enabled; the receiver-side install counters live in
// CacheStats either way).
type ReplicationStats struct {
	QueueLen int `json:"queue_len"`
	// Enqueued counts jobs accepted onto the queue, Pushes successful
	// per-peer transfers, Dropped jobs refused by a full queue (those
	// trainings stay unreplicated until anti-entropy), and Errors per-peer
	// pushes that exhausted their retries.
	Enqueued int64 `json:"enqueued"`
	Pushes   int64 `json:"pushes"`
	Dropped  int64 `json:"replication_dropped"`
	Errors   int64 `json:"errors"`
}

func (s *Server) replicationStats() *ReplicationStats {
	r := s.repl
	if r == nil {
		return nil
	}
	return &ReplicationStats{
		QueueLen: cap(r.jobs),
		Enqueued: r.enqueued.Load(),
		Pushes:   r.pushes.Load(),
		Dropped:  r.dropped.Load(),
		Errors:   r.errors.Load(),
	}
}

// handleReplicate serves POST /v1/replicate: a checkpoint-v2 stream of
// policy entries pushed by a peer (normally the clusters' primary owner).
// Installation is versioned per entry — only strictly-newer policies
// replace resident ones — which makes the endpoint idempotent by
// (cluster, TrainedAt).
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST only"))
		return
	}
	res, err := s.InstallReplicated(http.MaxBytesReader(w, r.Body, maxBodyBytes), s.isPrimaryFor)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// isPrimaryFor reports whether this node's recorded cluster identity names
// the cluster as primary-owned. Standalone servers (no identity) hold
// everything as replica.
func (s *Server) isPrimaryFor(cluster int) bool {
	id := s.ClusterIdentity()
	if id == nil {
		return false
	}
	i := sort.SearchInts(id.OwnedClusters, cluster)
	return i < len(id.OwnedClusters) && id.OwnedClusters[i] == cluster
}

// PolicyDigest identifies one resident policy's exact version: the training
// timestamp plus a CRC32-C over the marshaled policy bytes. Two owners hold
// bitwise-identical state for a cluster iff their digests match — the
// anti-entropy convergence check.
type PolicyDigest struct {
	Cluster   int       `json:"cluster"`
	TrainedAt time.Time `json:"trained_at"`
	CRC       uint32    `json:"crc"`
	// Bytes is the marshaled policy length (a cheap second collision guard).
	Bytes int `json:"bytes"`
}

// PolicyDigests snapshots the digest of every resident, healthy policy.
func (s *Server) PolicyDigests() (map[int]PolicyDigest, error) {
	out := make(map[int]PolicyDigest)
	for _, e := range s.cache.snapshot() {
		blob, err := e.crl.MarshalJSON()
		if err != nil {
			return nil, fmt.Errorf("serve: digest cluster %d: %w", e.key, err)
		}
		out[e.key] = PolicyDigest{
			Cluster:   e.key,
			TrainedAt: e.trainedAt,
			CRC:       crc32.Checksum(blob, checkpointCRC),
			Bytes:     len(blob),
		}
	}
	return out, nil
}

// InstallResult summarizes one replicated-stream install.
type InstallResult struct {
	// Sections is the number of undamaged entry sections decoded (installed
	// or not) — the page-size signal anti-entropy pagination terminates on.
	Sections int `json:"sections"`
	// Installed counts entries that were strictly newer than resident state.
	Installed int `json:"installed"`
	// Stale counts entries refused by the version gate (idempotent no-ops).
	Stale int `json:"stale"`
	// MaxCluster is the highest cluster key seen (-1 when none) — the
	// ?after= cursor for the next anti-entropy page.
	MaxCluster int `json:"max_cluster"`
}

// InstallReplicated installs a peer's checkpoint-v2 stream through the
// versioned idempotence gate. primary, when non-nil, decides the installed
// provenance per cluster: primary-owned clusters install as warm
// (checkpoint) entries, everything else as replica-held copies (TTL-exempt).
func (s *Server) InstallReplicated(r io.Reader, primary func(cluster int) bool) (InstallResult, error) {
	res := InstallResult{MaxCluster: -1}
	_, err := s.loadCheckpointStream(r, func(e checkpointEntry) bool {
		res.Sections++
		if e.Cluster > res.MaxCluster {
			res.MaxCluster = e.Cluster
		}
		crl, ok := s.decodeEntryPolicy(e)
		if !ok {
			return false
		}
		prov := provReplica
		if primary != nil && primary(e.Cluster) {
			prov = provCheckpoint
		}
		if !s.cache.installVersioned(e.Cluster, crl, e.Importance, e.TrainedAt, prov) {
			res.Stale++
			return false
		}
		res.Installed++
		return true
	})
	return res, err
}
