package main

import (
	"encoding/json"
	"math/rand"
	"sort"
	"strconv"
)

// base is one signature the generator builds requests around, with the
// ground truth the answers are scored against.
type base struct {
	Sig      []float64
	Cluster  int         // the store index NearestIndex maps Sig to
	Truth    []float64   // true importance per task
	Expected []float64   // the stored importance of Cluster: what history says this epoch looks like
	Oracle   float64     // importance alloc.OracleGreedy captures under Truth
	Features [][]float64 // Table-I vectors; nil for stored environments

	featJSON     []byte // Features, encoded once: only the signature varies per request
	truthJSON    []byte
	expectedJSON []byte
}

// prepare encodes the parts of the base that every request repeats.
func (b *base) prepare() {
	if b.Features != nil {
		b.featJSON, _ = json.Marshal(b.Features) // [][]float64 of finite numbers cannot fail
	}
	b.truthJSON, _ = json.Marshal(b.Truth)
	b.expectedJSON, _ = json.Marshal(b.Expected)
}

// jitterShare scales the store's per-dimension signature spread into the
// per-request Gaussian jitter: requests are distinct on the wire, yet stay in
// their base's cluster, so the working set in clusters is exact.
const jitterShare = 0.02

// maxRedraws bounds the re-draw loop for a base that sits on a cluster
// boundary; past it the base's own signature is sent.
const maxRedraws = 32

// generator is one client's deterministic request stream: request i depends
// only on (seed, stream, i).
type generator struct {
	rng     *rand.Rand
	bases   []base
	cdf     []float64 // nil: cycle through the bases in order
	drawn   int
	sigma   []float64
	nearest func([]float64) int
	sig     []float64
}

func newGenerator(seed int64, stream int, bases []base, spec workloadSpec, sigStd []float64, nearest func([]float64) int) *generator {
	g := &generator{
		rng:     rand.New(rand.NewSource(seed*1_000_003 + int64(stream)*7919 + 17)),
		bases:   bases,
		sigma:   make([]float64, len(sigStd)),
		nearest: nearest,
		sig:     make([]float64, len(sigStd)),
	}
	if !spec.InOrder {
		g.cdf = popularityCDF(len(bases), spec.Uniform)
	}
	for i, s := range sigStd {
		g.sigma[i] = jitterShare * s
	}
	return g
}

// popularityCDF is uniform, or Zipf with s = 1 where base i has rank i+1:
// the rank order belongs to the world, not the seed, so every seed offers the
// same mix.
func popularityCDF(n int, uniform bool) []float64 {
	cdf := make([]float64, n)
	var total float64
	for i := range cdf {
		w := 1.0
		if !uniform {
			w = 1 / float64(i+1)
		}
		total += w
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	cdf[n-1] = 1
	return cdf
}

// next draws the next request: the base's index and its jittered signature
// (valid until the following call).
func (g *generator) next() (int, []float64) {
	idx := g.drawn % len(g.bases)
	if g.cdf != nil {
		idx = sort.SearchFloat64s(g.cdf, g.rng.Float64())
	}
	g.drawn++
	b := &g.bases[idx]
	for try := 0; try < maxRedraws; try++ {
		for i, s := range b.Sig {
			g.sig[i] = s + g.rng.NormFloat64()*g.sigma[i]
		}
		if g.nearest(g.sig) == b.Cluster {
			return idx, g.sig
		}
	}
	copy(g.sig, b.Sig)
	return idx, g.sig
}

func appendFloats(dst []byte, v []float64) []byte {
	dst = append(dst, '[')
	for i, x := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendFloat(dst, x, 'g', -1, 64)
	}
	return append(dst, ']')
}

func appendInts(dst []byte, v []int) []byte {
	dst = append(dst, '[')
	for i, x := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(x), 10)
	}
	return append(dst, ']')
}

// appendAllocateBody encodes one /v1/allocate body.
func appendAllocateBody(dst []byte, sig []float64, b *base, allocator string, features bool) []byte {
	dst = append(dst, `{"signature":`...)
	dst = appendFloats(dst, sig)
	if allocator != "" {
		dst = append(dst, `,"allocator":"`...)
		dst = append(dst, allocator...)
		dst = append(dst, '"')
	}
	if features {
		dst = append(dst, `,"features":`...)
		dst = append(dst, b.featJSON...)
	}
	return append(dst, '}')
}

// appendFeedbackBody encodes one /v1/feedback body: the features the request
// carried, the allocation that was answered (and so executed), the observed
// importance — the epoch's truth when drift is set, else what the cluster's
// history expects — and a unique seq. add_to_store stays off (README.md,
// known gaps).
func appendFeedbackBody(dst []byte, sig []float64, b *base, allocation []int, drift bool, seq int64) []byte {
	dst = append(dst, `{"signature":`...)
	dst = appendFloats(dst, sig)
	dst = append(dst, `,"features":`...)
	dst = append(dst, b.featJSON...)
	dst = append(dst, `,"allocation":`...)
	dst = appendInts(dst, allocation)
	dst = append(dst, `,"importance":`...)
	if drift {
		dst = append(dst, b.truthJSON...)
	} else {
		dst = append(dst, b.expectedJSON...)
	}
	dst = append(dst, `,"seq":`...)
	dst = strconv.AppendInt(dst, seq, 10)
	return append(dst, '}')
}
