package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// The cluster test world mirrors internal/serve's: the tight 6-task /
// 2-processor TATIM template where an allocator must drop two of six tasks,
// over clusterCount well-separated one-dimensional signatures so requests
// exercise every ring range.
const clusterCount = 8

func testTemplate() *core.Problem {
	p := &core.Problem{TimeLimit: 2}
	for j := 0; j < 6; j++ {
		p.Tasks = append(p.Tasks, core.TaskSpec{ID: j, TimeCost: 1, Resource: 0.5})
	}
	for i := 0; i < 2; i++ {
		p.Processors = append(p.Processors, core.Processor{ID: i, Capacity: 2, SpeedFactor: 1})
	}
	return p
}

func testStore(t testing.TB) *core.EnvironmentStore {
	t.Helper()
	store := core.NewEnvironmentStore()
	for k := 0; k < clusterCount; k++ {
		imp := make([]float64, 6)
		for j := range imp {
			imp[j] = 0.05
		}
		for j := 0; j < 3; j++ {
			imp[3*(k%2)+j] = 0.9
		}
		if err := store.Add(&core.Environment{
			Importance: imp,
			Capacity:   []float64{2, 2},
			Signature:  []float64{float64(k)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

// fastServeConfig defines every request's environment as its cluster's
// representative.
func fastServeConfig() serve.Config {
	cfg := serve.DefaultConfig()
	cfg.ClusterNeighborhood = 1
	cfg.Logf = func(string, ...any) {}
	cfg.CRL = core.CRLConfig{K: 1}
	return cfg
}

// answer decodes a 200 allocate answer and checks it was the normal one.
func answer(t testing.TB, what string, code int, body []byte) serve.AllocateResponse {
	t.Helper()
	if code != http.StatusOK {
		t.Fatalf("%s: %d %s", what, code, body)
	}
	var resp serve.AllocateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if resp.Mode != serve.ModeNormal {
		t.Fatalf("%s: answered %s (%s), want normal", what, resp.Mode, resp.DegradedReason)
	}
	return resp
}

// sameAllocation reports whether two answers ship the same plan.
func sameAllocation(a, b serve.AllocateResponse) bool {
	if len(a.Allocation) != len(b.Allocation) {
		return false
	}
	for j := range a.Allocation {
		if a.Allocation[j] != b.Allocation[j] {
			return false
		}
	}
	return true
}

// startCluster boots an n-shard topology with deterministic membership: the
// probe ticker is effectively disabled, so liveness changes come only from
// proxy I/O errors and explicit ProbeOnce calls.
func startCluster(t *testing.T, n int, wrap func(id, addr string) (string, func(), error)) *LocalCluster {
	t.Helper()
	lc, err := StartLocal(testTemplate(), testStore(t), nil, LocalOptions{
		Shards: n,
		Serve:  fastServeConfig(),
		Router: RouterConfig{
			ProbeEvery:   time.Hour,
			ProbeTimeout: 2 * time.Second,
		},
		WrapShardAddr: wrap,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	return lc
}

// allocBody renders an allocate/feedback request for one cluster signature.
func allocBody(k int) []byte {
	return []byte(fmt.Sprintf(`{"signature":[%d]}`, k))
}

func post(t testing.TB, addr, path string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post("http://"+addr+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s read: %v", path, err)
	}
	return resp.StatusCode, out
}

func get(t testing.TB, addr, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s read: %v", path, err)
	}
	return resp.StatusCode, out
}

// TestClusterRoutingDeterminism drives one allocate per cluster signature
// through the router and checks the observed per-shard request counts match
// the ring's predicted ownership exactly, and that the served shard map
// round-trips into the same ring.
func TestClusterRoutingDeterminism(t *testing.T) {
	lc := startCluster(t, 3, nil)

	want := map[string]int64{}
	ring := lc.Router().Ring()
	for k := 0; k < clusterCount; k++ {
		want[ring.Owner(k)]++
	}

	const rounds = 3 // repeats must land on the same owners
	for round := 0; round < rounds; round++ {
		for k := 0; k < clusterCount; k++ {
			code, body := post(t, lc.Addr(), "/v1/allocate", allocBody(k))
			if code != http.StatusOK {
				t.Fatalf("allocate cluster %d: %d %s", k, code, body)
			}
		}
	}

	st := lc.Router().Stats()
	if st.Requests != rounds*clusterCount {
		t.Fatalf("router counted %d requests, want %d", st.Requests, rounds*clusterCount)
	}
	for _, sc := range st.Shards {
		if got, wantN := sc.Proxied, rounds*want[sc.ID]; got != wantN {
			t.Errorf("shard %s proxied %d requests, ring predicts %d", sc.ID, got, wantN)
		}
		if sc.NonOK != 0 || sc.IOErrors != 0 {
			t.Errorf("shard %s: non-2xx=%d io-errors=%d on a healthy run", sc.ID, sc.NonOK, sc.IOErrors)
		}
	}

	// The served shard map's live shards and vnodes rebuild the routing ring.
	code, body := get(t, lc.Addr(), "/v1/cluster")
	if code != http.StatusOK {
		t.Fatalf("/v1/cluster: %d", code)
	}
	var m ShardMap
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("served shard map: %v", err)
	}
	if m.Version != ShardMapVersion {
		t.Fatalf("shard map version %d, want %d", m.Version, ShardMapVersion)
	}
	var live []string
	for _, s := range m.Shards {
		if s.Alive {
			live = append(live, s.ID)
		}
	}
	rebuilt, err := NewRing(m.VNodes, live)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < clusterCount; k++ {
		if rebuilt.Owner(k) != ring.Owner(k) {
			t.Fatalf("cluster %d: rebuilt ring resolves %q, router routes %q", k, rebuilt.Owner(k), ring.Owner(k))
		}
	}

	if code, _ := get(t, lc.Addr(), "/healthz"); code != http.StatusOK {
		t.Fatalf("router healthz: %d", code)
	}
}

// TestClusterFailoverAndRejoin is the availability core: kill a shard
// mid-service, show its ranges fail over with zero non-200s and the same
// normal answers every shard gives for the same store, then restart it and
// show it rejoins and answers its ranges again.
func TestClusterFailoverAndRejoin(t *testing.T) {
	lc := startCluster(t, 3, nil)

	before := make([]serve.AllocateResponse, clusterCount)
	for k := 0; k < clusterCount; k++ {
		code, body := post(t, lc.Addr(), "/v1/allocate", allocBody(k))
		before[k] = answer(t, fmt.Sprintf("cluster %d", k), code, body)
	}

	// Pick a victim that owns at least one cluster, and one cluster it owns.
	ring := lc.Router().Ring()
	victim, victimKey := -1, -1
	for i := 0; i < lc.Shards() && victim < 0; i++ {
		for k := 0; k < clusterCount; k++ {
			if ring.Owner(k) == lc.ShardID(i) {
				victim, victimKey = i, k
				break
			}
		}
	}
	if victim < 0 {
		t.Fatal("no shard owns any cluster")
	}

	if err := lc.KillShard(victim); err != nil {
		t.Fatal(err)
	}

	// Every cluster — including the victim's — must still answer 200, as
	// before the kill. The first request into a dead range costs an
	// ejection + retry.
	for k := 0; k < clusterCount; k++ {
		code, body := post(t, lc.Addr(), "/v1/allocate", allocBody(k))
		if got := answer(t, fmt.Sprintf("failover cluster %d", k), code, body); !sameAllocation(got, before[k]) {
			t.Fatalf("failover cluster %d: allocation %v, before the kill %v", k, got.Allocation, before[k].Allocation)
		}
	}
	st := lc.Router().Stats()
	if st.Ejections < 1 || st.Retries < 1 {
		t.Fatalf("kill produced ejections=%d retries=%d; want ≥1 each", st.Ejections, st.Retries)
	}
	if st.LiveShards != 2 {
		t.Fatalf("%d live shards after kill, want 2", st.LiveShards)
	}

	if err := lc.RestartShard(victim); err != nil {
		t.Fatal(err)
	}
	lc.Router().ProbeOnce()
	st = lc.Router().Stats()
	if st.Rejoins < 1 || st.LiveShards != 3 {
		t.Fatalf("rejoin not observed: rejoins=%d live=%d", st.Rejoins, st.LiveShards)
	}

	// The victim's range routes to it again, and its fresh server answers
	// it normally from its first request.
	code, body := post(t, lc.Addr(), "/v1/allocate", allocBody(victimKey))
	if got := answer(t, "post-rejoin allocate", code, body); !sameAllocation(got, before[victimKey]) {
		t.Fatalf("post-rejoin allocation %v, before the kill %v", got.Allocation, before[victimKey].Allocation)
	}
	if n := lc.Server(victim).Stats().Allocates; n != 1 {
		t.Fatalf("the rejoined shard answered %d allocates, want its range's one", n)
	}
}

// TestClusterMalformedBodyPassthrough: requests the router cannot route by
// signature go round-robin and the shard owns the 4xx; bad requests must
// never eject anyone.
func TestClusterMalformedBodyPassthrough(t *testing.T) {
	lc := startCluster(t, 3, nil)

	for _, body := range [][]byte{
		[]byte(`{not json`),
		[]byte(`{}`),
		[]byte(`{"signature":[]}`),
	} {
		code, resp := post(t, lc.Addr(), "/v1/allocate", body)
		if code != http.StatusBadRequest {
			t.Fatalf("body %q: code %d (%s), want 400 from the shard", body, code, resp)
		}
	}
	st := lc.Router().Stats()
	if st.Ejections != 0 || st.LiveShards != 3 {
		t.Fatalf("malformed bodies moved membership: ejections=%d live=%d", st.Ejections, st.LiveShards)
	}

	// GET on a proxy endpoint is the router's own 405.
	if code, _ := get(t, lc.Addr(), "/v1/allocate"); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/allocate: %d, want 405", code)
	}
}

// TestClusterRouterKeysWhatTheShardAccepts: the router and the shards read a
// body with one scanner, so the router routes by signature exactly the bodies
// whose signature the shard's decoder accepts. The lenient json.Unmarshal it
// used before keyed bodies the shard then rejected (an unknown member) and
// sent round-robin bodies the shard then served (bytes after the object).
func TestClusterRouterKeysWhatTheShardAccepts(t *testing.T) {
	lc := startCluster(t, 3, nil)
	for _, tc := range []struct {
		path, body string
		keyed      bool
		code       int
	}{
		{"/v1/allocate", `{"signature":[2]}`, true, http.StatusOK},
		{"/v1/allocate", " {\"allocator\":\"crl\",\"signature\":[2]}\n", true, http.StatusOK},
		{"/v1/allocate", `{"signature":[2]} {"signature":[3]}`, false, http.StatusBadRequest},
		{"/v1/allocate", `{"signature":[2]}x`, false, http.StatusBadRequest},
		{"/v1/allocate", `{"signature":[2],"bogus":1}`, false, http.StatusBadRequest},
		{"/v1/allocate", `{"signature":[2],"signature":[3]}`, false, http.StatusBadRequest},
		{"/v1/allocate", `{"Signature":[2]}`, false, http.StatusBadRequest},
		{"/v1/allocate", `{"signature":[null]}`, false, http.StatusBadRequest},
		{"/v1/allocate", `{"signature":[2],"seq":7}`, false, http.StatusBadRequest},
		{"/v1/feedback", `{"signature":[2],"seq":7,"features":[[1]],"allocation":[0]}`, true, http.StatusOK},
		{"/v1/feedback", `{"signature":[2],"allocator":"crl","features":[[1]],"allocation":[0]}`, false, http.StatusBadRequest},
		// The signature is good; the shard faults another member's value.
		{"/v1/allocate", `{"signature":[2],"features":"x"}`, true, http.StatusBadRequest},
	} {
		before := lc.Router().roundRobin.Load()
		code, resp := post(t, lc.Addr(), tc.path, []byte(tc.body))
		if code != tc.code {
			t.Errorf("%s %s: code %d (%s), want %d", tc.path, tc.body, code, resp, tc.code)
		}
		if keyed := lc.Router().roundRobin.Load() == before; keyed != tc.keyed {
			t.Errorf("%s %s: routed by signature = %v, want %v", tc.path, tc.body, keyed, tc.keyed)
		}
	}
}

// TestClusterAllShardsDown: with every shard dead the router degrades to
// clean 503s (the one allowed non-2xx) and its own healthz reports it.
func TestClusterAllShardsDown(t *testing.T) {
	lc := startCluster(t, 1, nil)

	if code, _ := post(t, lc.Addr(), "/v1/allocate", allocBody(0)); code != http.StatusOK {
		t.Fatalf("healthy allocate: %d", code)
	}
	if err := lc.KillShard(0); err != nil {
		t.Fatal(err)
	}
	code, body := post(t, lc.Addr(), "/v1/allocate", allocBody(0))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("allocate with no shards: %d %s, want 503", code, body)
	}
	if code, _ := get(t, lc.Addr(), "/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("router healthz with no shards: %d, want 503", code)
	}
	st := lc.Router().Stats()
	if st.NoShard503s < 1 || st.LiveShards != 0 {
		t.Fatalf("no-shard accounting: 503s=%d live=%d", st.NoShard503s, st.LiveShards)
	}
}
