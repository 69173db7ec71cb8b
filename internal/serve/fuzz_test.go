package serve

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/core"
)

// fuzzServer builds a silent two-cluster server; testing.TB so both the
// seed-corpus phase (*testing.F) and the fuzz body (*testing.T) can use it.
func fuzzServer(tb testing.TB) *Server {
	tb.Helper()
	store := core.NewEnvironmentStore()
	for cluster := 0; cluster < 2; cluster++ {
		if err := store.Add(&core.Environment{
			Importance: clusterImportance(cluster),
			Capacity:   []float64{2, 2},
			Signature:  []float64{float64(cluster)},
		}); err != nil {
			tb.Fatal(err)
		}
	}
	cfg := fastConfig()
	cfg.Logf = func(string, ...any) {} // corrupt inputs are expected here
	s, err := NewServer(testTemplate(), store, nil, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// FuzzLoadCheckpoint throws arbitrary bytes at the checkpoint restore path.
// The loader reads files that survived crashes and torn writes, so it must
// never panic and must contain damage per section: any input either loads
// some entries, skips them, or fails cleanly.
func FuzzLoadCheckpoint(f *testing.F) {
	// Seed corpus: a real warm checkpoint, a bit-flipped one, a truncated
	// one, a bare-JSON file of the retired first format (refused), and
	// assorted structural garbage.
	seedSrv := fuzzServer(f)
	if _, err := seedSrv.Allocate(context.Background(), AllocateRequest{Signature: []float64{0}}); err != nil {
		f.Fatal(err)
	}
	var good bytes.Buffer
	if err := seedSrv.SaveCheckpoint(&good); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), good.Bytes()...))
	// A shard-scoped export — the exact stream a joining cluster peer pulls
	// and feeds through InstallFromPeerCheckpoint.
	var scoped bytes.Buffer
	if err := seedSrv.SaveCheckpointFor(&scoped, func(k int) bool { return k == 0 }); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), scoped.Bytes()...))
	flipped := append([]byte(nil), good.Bytes()...)
	flipped[len(flipped)/2] ^= 0xFF
	f.Add(flipped)
	f.Add(append([]byte(nil), good.Bytes()[:len(good.Bytes())*2/3]...))
	f.Add([]byte(`{"version":1,"entries":[]}`))
	f.Add([]byte(`{"version":7}`))
	f.Add([]byte("DCTACKP\x02"))
	f.Add([]byte("DCTACKP\x02\xFF\xFF\xFF\xFF\x00\x00\x00\x00"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s := fuzzServer(t)
		restored, err := s.LoadCheckpoint(bytes.NewReader(data))
		if restored < 0 {
			t.Fatalf("restored %d entries", restored)
		}
		if !bytes.HasPrefix(data, checkpointMagic) &&
			(err == nil || restored != 0 || s.Stats().CheckpointSkips != 0) {
			t.Fatalf("stream without the magic: restored %d, skips %d, err %v; want a clean refusal",
				restored, s.Stats().CheckpointSkips, err)
		}
		if err != nil && restored == 0 && s.Stats().CheckpointSkips == 0 {
			// Clean failure: nothing half-installed, nothing skipped —
			// fine. The point is we got here without panicking.
			return
		}
		// A load that installed entries must leave the cache serviceable:
		// saving again must produce a well-formed checkpoint.
		var out bytes.Buffer
		if err := s.SaveCheckpoint(&out); err != nil {
			t.Fatalf("cache unserviceable after load: %v", err)
		}
	})
}

// FuzzDecodeReplicate throws arbitrary bytes at the replication receiver —
// the exact stream POST /v1/replicate and the anti-entropy pull install. It
// must never panic, never accept the legacy v1 format, and keep its result
// counters coherent on any input.
func FuzzDecodeReplicate(f *testing.F) {
	seedSrv := fuzzServer(f)
	if _, err := seedSrv.Allocate(context.Background(), AllocateRequest{Signature: []float64{0}}); err != nil {
		f.Fatal(err)
	}
	// A real replication snapshot (single-cluster page), a full page, a
	// bit-flipped one, a truncated one, a v1 payload (must be refused), and
	// structural garbage.
	var page bytes.Buffer
	if _, err := seedSrv.SaveCheckpointPage(&page, func(k int) bool { return k == 0 }, -1, 0); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), page.Bytes()...))
	var full bytes.Buffer
	if _, err := seedSrv.SaveCheckpointPage(&full, nil, -1, 0); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), full.Bytes()...))
	flipped := append([]byte(nil), page.Bytes()...)
	flipped[len(flipped)/2] ^= 0xFF
	f.Add(flipped)
	f.Add(append([]byte(nil), page.Bytes()...)[:page.Len()*2/3])
	f.Add([]byte(`{"version":1,"entries":[]}`))
	f.Add([]byte("DCTACKP\x01"))
	f.Add([]byte("DCTACKP\x02"))
	f.Add([]byte("DCTACKP\x02\xFF\xFF\xFF\xFF\x00\x00\x00\x00"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s := fuzzServer(t)
		res, err := s.InstallReplicated(bytes.NewReader(data), func(int) bool { return false })
		if res.Installed < 0 || res.Stale < 0 || res.Installed+res.Stale > res.Sections {
			t.Fatalf("incoherent install result %+v", res)
		}
		if !bytes.HasPrefix(data, []byte(checkpointMagic)) && res.Sections != 0 {
			t.Fatalf("non-v2 input decoded %d sections (err=%v)", res.Sections, err)
		}
		// Whatever was installed, the cache must stay serviceable.
		var out bytes.Buffer
		if err := s.SaveCheckpoint(&out); err != nil {
			t.Fatalf("cache unserviceable after install: %v", err)
		}
	})
}
