// Package serve turns the one-shot TATIM pipeline into a long-running
// allocation service: the serve-side shape of Alg. 1's prediction phase. A
// request carries the sensing signature Z observed right now; the service
// clusters it onto the nearest historical environment (§III-C's
// e = kNN(ℰ, Z)) and answers with alloc.Decide over that cluster's
// neighbourhood of the store: define the environment, mix in the local
// process (Eq. 6) when the request carries Table-I features and the local
// model is fitted (DCTA), or not (the "crl" arm), and pack the tasks by the
// result — the decision the simulated DCTA and CRL guard make. Nothing on the
// request path trains: the paper trains its policy "once in advance"
// (footnote 1), and no served answer reads a DQN. Feedback requests stream
// alloc.LocalModel samples online and may append observed environments to
// the historical store, so the service keeps re-solving TATIM as importance
// drifts — the paper's motivating loop (§III, Theorem 1).
//
// The package splits into:
//
//   - server.go   — Server: allocate/feedback/stats against a template,
//     store and local model; while draining, allocates answer with the same
//     decision, labelled degraded
//   - http.go     — the HTTP/JSON API (/v1/allocate, /v1/feedback,
//     /v1/stats, /healthz) with request timeouts, panic recovery and
//     graceful drain
//   - membership.go — the gossip plane's stats when the node is part of a
//     fleet. A shard answers any cluster it is asked about; which clusters
//     it owns is the router's ring alone (internal/cluster)
package serve

import (
	"errors"
	"log"
	"time"

	"repro/internal/core"
)

// Common errors.
var (
	// ErrBadRequest is returned for malformed allocation/feedback requests.
	ErrBadRequest = errors.New("serve: bad request")
	// ErrNonFinite is returned (wrapped in ErrBadRequest) when a request
	// carries NaN or ±Inf where a finite number is required. JSON cannot
	// encode them natively, but a client using an extended encoder could
	// smuggle one in — and a single NaN data size silently poisons every
	// knapsack feasibility comparison downstream, so they are rejected at
	// the boundary.
	ErrNonFinite = errors.New("non-finite number")
	// ErrDraining is returned once the server has begun shutting down.
	ErrDraining = errors.New("serve: draining")
)

// Config tunes the allocation service.
type Config struct {
	// ClusterNeighborhood is the number of nearest stored environments that
	// form a cluster's sub-store — the per-cluster slice of history every
	// answer defines its environment from (default 5).
	ClusterNeighborhood int
	// CRL's K and Blend are the kNN policy that defines a request's
	// environment inside its cluster's sub-store (default: core's K,
	// blended). Its training fields are inert: only the benchmark sets them.
	CRL core.CRLConfig
	// WarmEpisodeFrac is inert in the service: only the benchmark reads it,
	// to size the warm-start trainings it times itself (default 1/4).
	WarmEpisodeFrac float64
	// CacheCapacity is inert in the service: only the benchmark sets it.
	CacheCapacity int
	// RefitEvery refits the local model after this many fresh feedback
	// samples (default 256).
	RefitEvery int
	// MaxFeedback bounds the retained feedback sample window (default 4096).
	MaxFeedback int
	// W1, W2 and CoverageTarget are alloc.DCTA's knobs, passed to
	// alloc.Decide for the DCTA arm (defaults 0.5 / 0.5 / 0.9); the crl arm
	// mixes in no local term and packs to 1.0, as CRLAllocator's guard does.
	W1, W2         float64
	CoverageTarget float64
	// Seed derives the local model's refit seeds.
	Seed int64
	// Now is the service clock (tests inject a fake; default time.Now).
	Now func() time.Time
	// Logf sinks service logs: recovered panics (default log.Printf).
	Logf func(format string, args ...any)
}

// DefaultConfig returns the serving defaults.
func DefaultConfig() Config { return Config{}.withDefaults() }

func (c Config) withDefaults() Config {
	if c.ClusterNeighborhood < 1 {
		c.ClusterNeighborhood = 5
	}
	if c.CRL.K < 1 {
		c.CRL.K = core.DefaultCRLConfig().K
		c.CRL.Blend = true
	}
	if c.WarmEpisodeFrac <= 0 || c.WarmEpisodeFrac > 1 {
		c.WarmEpisodeFrac = 1.0 / 4
	}
	if c.RefitEvery < 1 {
		c.RefitEvery = 256
	}
	if c.MaxFeedback < 1 {
		c.MaxFeedback = 4096
	}
	if c.W1 == 0 && c.W2 == 0 {
		c.W1, c.W2 = 0.5, 0.5
	}
	if c.CoverageTarget <= 0 || c.CoverageTarget > 1 {
		c.CoverageTarget = 0.9
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}
