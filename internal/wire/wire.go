// Package wire is the codec of the two request bodies the service takes on
// its hot path — POST /v1/allocate and POST /v1/feedback — and of the
// allocate answer. The shard (internal/serve) decodes and encodes with it and
// the router (internal/cluster) pulls the routing signature out with it, so
// the two tiers cannot disagree on what a body means. It is one forward pass
// over the body bytes with no reflection and, into a warmed target, no
// allocation.
//
// Each number literal is read once: the pass that checks its grammar also
// folds its digits into a 64-bit mantissa, eight at a time, and sums its
// decimal exponent, and Eisel–Lemire (float.go) turns the two into the
// nearest float64. What that cannot settle — more than 19 significant
// digits, an exponent
// outside its 10^±64 table, a rounding its 128-bit product leaves open, a
// subnormal or overflowing result — goes to strconv.ParseFloat on the
// literal, as encoding/json's numbers do. Both are correctly rounded, so
// decoded values are bit-identical to the stdlib's, and the out-of-range
// error is strconv's.
//
// # Request grammar
//
// A body is one JSON object (RFC 8259), optionally surrounded by whitespace:
//
//	/v1/allocate  {"signature":[n,…], "features":[[n,…],…], "allocator":"auto|crl|dcta"}
//	/v1/feedback  {"signature":[n,…], "features":[[n,…],…], "allocation":[i,…],
//	               "importance":[n,…], "add_to_store":bool, "seq":i}
//
// Members may come in any order and any may be left out; a member whose value
// is null counts as left out. Everything encoding/json with
// DisallowUnknownFields rejects is rejected — unknown members, malformed
// numbers, numbers out of float64/int64 range, a fraction or exponent on an
// integer, a value of the wrong type. Beyond that the grammar is tighter than
// encoding/json in exactly these ways, each answered 400 by the shard:
//
//   - member names are the exact lower-case names above: no case folding and
//     no escape sequences inside a name;
//   - a member may appear once;
//   - null is not an array element: a stdlib decode into a reused slice
//     leaves the previous request's value in place of each null;
//   - the body is an object, not a bare null;
//   - nothing but whitespace follows the closing brace.
package wire

import (
	"fmt"
	"io"
)

// AllocateRequest is one allocation query: the sensing signature Z, plus
// optional Table-I feature vectors enabling the DCTA local process.
type AllocateRequest struct {
	Signature []float64   `json:"signature"`
	Features  [][]float64 `json:"features,omitempty"`
	// Allocator selects the strategy: "auto" (default — DCTA when features
	// and a fitted local model are available, else CRL), "crl", or "dcta".
	Allocator string `json:"allocator,omitempty"`
}

// AllocateResponse is the service's answer.
type AllocateResponse struct {
	// Allocation maps task → processor index, -1 for dropped tasks.
	Allocation []int `json:"allocation"`
	// Cluster is the store index of the nearest historical environment —
	// the policy-cache key.
	Cluster int `json:"cluster"`
	// Cache is "bypass" on every answer: no policy is cached or consulted.
	Cache string `json:"cache"`
	// Allocator is the strategy that produced the allocation: CRL (the
	// guard pack of the defined importance) or DCTA.
	Allocator string `json:"allocator"`
	// Mode is "normal", or "degraded" for the same decision answered while
	// the server drains.
	Mode string `json:"mode"`
	// DegradedReason says why the answer is degraded ("draining"; degraded
	// mode only).
	DegradedReason string `json:"degraded_reason,omitempty"`
	// PredictedImportance is the allocator's own captured-importance
	// estimate under the defined environment.
	PredictedImportance float64 `json:"predicted_importance"`
	// TrainNanos is the policy training time when this request led a
	// training (cache ∈ {miss, expired, drift}); 0 otherwise.
	TrainNanos int64 `json:"train_ns,omitempty"`
	// LatencyNanos is the server-side handling time.
	LatencyNanos int64 `json:"latency_ns"`
}

// FeedbackRequest streams one observed decision back into the service: the
// per-task features and the allocation that was actually executed become
// local-process training samples; an optional observed importance vector
// drives drift detection and, with AddToStore, grows the historical store.
type FeedbackRequest struct {
	Signature  []float64   `json:"signature"`
	Features   [][]float64 `json:"features"`
	Allocation []int       `json:"allocation"`
	Importance []float64   `json:"importance,omitempty"`
	AddToStore bool        `json:"add_to_store,omitempty"`
	// Seq is an optional client-supplied idempotency key (non-zero). The
	// cluster router replays feedback on a failed round trip, and refits are
	// not idempotent — a server that has already applied a seq answers the
	// replay with Duplicate=true and changes nothing. The ledger is bounded
	// and per shard, so cross-shard replays (a retry that lands on a
	// different owner after ejection) remain at-least-once.
	Seq int64 `json:"seq,omitempty"`
}

// Kind names a request grammar: which members a body may carry.
type Kind uint8

const (
	Allocate Kind = iota // a /v1/allocate body
	Feedback             // a /v1/feedback body
)

// Error is a rejected body: where the scanner stopped, inside which member's
// value (empty at the level of the object itself), and why.
type Error struct {
	Offset int
	Member string
	Msg    string
}

func (e *Error) Error() string {
	if e.Member != "" {
		return fmt.Sprintf("%s: %s at byte %d", e.Member, e.Msg, e.Offset)
	}
	return fmt.Sprintf("%s at byte %d", e.Msg, e.Offset)
}

// MaxBody bounds the request bodies both tiers read: the shard and the
// router refuse a longer one with 400. Feature matrices for paper-scale
// problems are well under a megabyte.
const MaxBody = 8 << 20

// MaxPooledBody bounds the body buffers a tier keeps between requests. Both
// tiers read bodies into pooled workspaces; one that served a larger body is
// dropped instead of pooled, so a single 8 MB request cannot pin its buffers
// (and the arrays decoded from it) for the life of the process. Paper-scale
// bodies are ~6 KB.
const MaxPooledBody = 64 << 10

// ReadBody appends the reader's contents onto dst.
func ReadBody(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}
