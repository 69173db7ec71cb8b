package main

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
)

var (
	smallOnce sync.Once
	smallW    *world
	smallErr  error
)

// testWorld builds the small world once for the tests that need the
// program's own store and kNN.
func testWorld(t *testing.T) *world {
	t.Helper()
	smallOnce.Do(func() { smallW, smallErr = buildWorld(smallWorld) })
	if smallErr != nil {
		t.Fatal(smallErr)
	}
	return smallW
}

// stream renders the first n requests of a client's stream as the bytes that
// would go on the wire.
func stream(w *world, seed int64, client, n int, spec workloadSpec) []byte {
	bases := w.Eval
	if spec.StoreBases {
		bases = w.Stored
	}
	g := newGenerator(seed, client, bases, spec, w.SigStd, w.nearest)
	var out []byte
	for i := 0; i < n; i++ {
		idx, sig := g.next()
		out = appendAllocateBody(out, sig, &bases[idx], spec.Allocator, spec.Features)
		out = append(out, '\n')
	}
	return out
}

func TestStreamDeterministicPerSeed(t *testing.T) {
	w := testWorld(t)
	for _, spec := range workloads {
		a := stream(w, 7, 0, 200, spec)
		if b := stream(w, 7, 0, 200, spec); !bytes.Equal(a, b) {
			t.Errorf("%s: same seed gave different request bytes", spec.Name)
		}
		if b := stream(w, 8, 0, 200, spec); bytes.Equal(a, b) {
			t.Errorf("%s: another seed gave the same request bytes", spec.Name)
		}
		if b := stream(w, 7, 1, 200, spec); bytes.Equal(a, b) {
			t.Errorf("%s: two clients of one run share a stream", spec.Name)
		}
	}
}

func TestRequestBodiesAreValidJSON(t *testing.T) {
	w := testWorld(t)
	for _, spec := range workloads {
		for _, line := range bytes.Split(bytes.TrimSpace(stream(w, 3, 0, 20, spec)), []byte("\n")) {
			var req struct {
				Signature []float64   `json:"signature"`
				Features  [][]float64 `json:"features"`
				Allocator string      `json:"allocator"`
			}
			if err := json.Unmarshal(line, &req); err != nil {
				t.Fatalf("%s: %v in %.120s", spec.Name, err, line)
			}
			if len(req.Signature) != len(w.SigStd) || req.Allocator != spec.Allocator ||
				(len(req.Features) == len(w.Limits.TaskTime)) != spec.Features {
				t.Fatalf("%s: body does not match the workload: %.120s", spec.Name, line)
			}
		}
	}
	b := &w.Eval[0]
	body := appendFeedbackBody(nil, b.Sig, b, []int{0, -1, 2}, true, 42)
	var fb struct {
		Allocation []int     `json:"allocation"`
		Importance []float64 `json:"importance"`
		Seq        int64     `json:"seq"`
		AddToStore bool      `json:"add_to_store"`
	}
	if err := json.Unmarshal(body, &fb); err != nil {
		t.Fatal(err)
	}
	if fb.Seq != 42 || len(fb.Allocation) != 3 || len(fb.Importance) != len(b.Truth) || fb.AddToStore {
		t.Fatalf("feedback body: %+v", fb)
	}
}

// Every jittered signature must stay in its base's cluster: the working set
// in clusters is what separates the warm workloads from cold_churn.
func TestJitterStaysInCluster(t *testing.T) {
	w := testWorld(t)
	for _, bases := range [][]base{w.Eval, w.Stored} {
		g := newGenerator(11, 0, bases, workloadSpec{Uniform: true}, w.SigStd, w.nearest)
		distinct := map[float64]bool{}
		for i := 0; i < 5000; i++ {
			idx, sig := g.next()
			if got := w.nearest(sig); got != bases[idx].Cluster {
				t.Fatalf("draw %d: base of cluster %d sent a signature of cluster %d", i, bases[idx].Cluster, got)
			}
			distinct[sig[0]] = true
		}
		if len(distinct) < 4900 {
			t.Errorf("only %d distinct signatures in 5000 draws: requests should differ on the wire", len(distinct))
		}
	}
}

func TestPopularityShares(t *testing.T) {
	w := testWorld(t)
	const draws = 200000
	count := func(spec workloadSpec) []float64 {
		g := newGenerator(5, 0, w.Eval, spec, w.SigStd, w.nearest)
		shares := make([]float64, len(w.Eval))
		for i := 0; i < draws; i++ {
			idx, _ := g.next()
			shares[idx] += 1.0 / draws
		}
		return shares
	}
	n := len(w.Eval)
	var harmonic float64
	for i := 1; i <= n; i++ {
		harmonic += 1 / float64(i)
	}
	for i, got := range count(workloadSpec{}) {
		if want := 1 / float64(i+1) / harmonic; math.Abs(got-want) > 0.01 {
			t.Errorf("zipf: base %d drew share %.4f, want %.4f", i, got, want)
		}
	}
	for i, got := range count(workloadSpec{Uniform: true}) {
		if want := 1 / float64(n); math.Abs(got-want) > 0.01 {
			t.Errorf("uniform: base %d drew share %.4f, want %.4f", i, got, want)
		}
	}
	for i, got := range count(workloadSpec{InOrder: true}) {
		if want := 1 / float64(n); math.Abs(got-want) > 1e-4 {
			t.Errorf("in order: base %d drew share %.6f, want exactly %.6f", i, got, want)
		}
	}
}

// The worlds the workloads rely on: the warm workloads' working set fits the
// cache, cold_churn's does not.
func TestWorldShapes(t *testing.T) {
	w := testWorld(t)
	if len(w.Limits.TaskTime) != 24 || len(w.Limits.ProcCap) != 5 || len(w.Stored) != 40 || len(w.Eval) != 16 {
		t.Fatalf("small world is %d tasks × %d processors, %d stored + %d eval epochs",
			len(w.Limits.TaskTime), len(w.Limits.ProcCap), len(w.Stored), len(w.Eval))
	}
	clusters := map[int]bool{}
	for _, b := range w.Stored {
		clusters[b.Cluster] = true
	}
	churn, _ := findWorkload("cold_churn")
	if len(clusters) <= 2*churn.CacheCapacity {
		t.Errorf("cold_churn draws over %d clusters against a cache of %d: most requests must miss", len(clusters), churn.CacheCapacity)
	}
}
