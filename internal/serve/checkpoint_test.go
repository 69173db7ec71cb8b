package serve

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestCheckpointWarmStart is satellite 2's end-to-end check: a full CRL
// snapshot survives the serve warm-start path. Allocations after restore
// must match the pre-checkpoint ones exactly, with zero retraining.
func TestCheckpointWarmStart(t *testing.T) {
	ctx := context.Background()
	s := newTestServer(t, fastConfig())
	reqs := []AllocateRequest{
		{Signature: []float64{0.05}},
		{Signature: []float64{0.95}},
	}
	var before []*AllocateResponse
	for _, req := range reqs {
		resp, err := s.Allocate(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		before = append(before, resp)
	}

	var buf bytes.Buffer
	if err := s.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}

	// Fresh process: same template, same store, cold cache.
	s2 := newTestServer(t, fastConfig())
	restored, err := s2.LoadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if restored != 2 {
		t.Fatalf("restored %d entries, want 2", restored)
	}
	for i, req := range reqs {
		resp, err := s2.Allocate(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Cache != CacheWarm {
			t.Fatalf("request %d: cache = %q, want %q", i, resp.Cache, CacheWarm)
		}
		if resp.Cluster != before[i].Cluster {
			t.Fatalf("request %d: cluster %d vs %d", i, resp.Cluster, before[i].Cluster)
		}
		for j := range resp.Allocation {
			if resp.Allocation[j] != before[i].Allocation[j] {
				t.Fatalf("request %d: allocation diverges at task %d: %v vs %v",
					i, j, resp.Allocation, before[i].Allocation)
			}
		}
	}
	stats := s2.Stats().Cache
	if stats.Trainings != 0 {
		t.Fatalf("warm start trained %d policies, want 0", stats.Trainings)
	}
	if stats.WarmRestores != 2 {
		t.Fatalf("warm restores = %d, want 2", stats.WarmRestores)
	}

	// A warm policy still expires/retrains through the normal lifecycle: a
	// drifted importance report invalidates it.
	fb, err := s2.Feedback(ctx, FeedbackRequest{
		Signature:  []float64{0.05},
		Features:   mkFeatures(clusterImportance(1), 0.05, 77),
		Allocation: []int{core.Unassigned, core.Unassigned, 0, 0, 1, 1},
		Importance: clusterImportance(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !fb.DriftInvalidated {
		t.Fatal("drift not detected on warm entry")
	}
}

// saveTwoClusterCheckpoint warms both clusters and returns the framed bytes.
func saveTwoClusterCheckpoint(t *testing.T, s *Server) []byte {
	t.Helper()
	ctx := context.Background()
	for c := 0; c < 2; c++ {
		if _, err := s.Allocate(ctx, AllocateRequest{Signature: []float64{float64(c)}}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sectionOffsets parses a v2 checkpoint's frame boundaries: the byte offset
// and payload length of each section (header first).
func sectionOffsets(t *testing.T, data []byte) [][2]int {
	t.Helper()
	if !bytes.HasPrefix(data, checkpointMagic) {
		t.Fatal("not a v2 checkpoint")
	}
	var secs [][2]int
	off := len(checkpointMagic)
	for off < len(data) {
		n := int(uint32(data[off])<<24 | uint32(data[off+1])<<16 | uint32(data[off+2])<<8 | uint32(data[off+3]))
		secs = append(secs, [2]int{off, n})
		off += 8 + n
	}
	return secs
}

// TestCheckpointBitFlipBootsColdOnlyDamagedCluster is the tentpole's
// corruption acceptance: flip one byte inside one cluster's section and the
// restore skips exactly that cluster — the other serves warm, the damaged
// one boots cold and retrains on demand, and the skip is logged and counted.
func TestCheckpointBitFlipBootsColdOnlyDamagedCluster(t *testing.T) {
	ctx := context.Background()
	data := saveTwoClusterCheckpoint(t, newTestServer(t, fastConfig()))
	secs := sectionOffsets(t, data)
	if len(secs) != 3 {
		t.Fatalf("sections = %d, want header + 2 entries", len(secs))
	}
	// Damage the first entry's payload (section 1; section 0 is the header).
	corrupt := append([]byte(nil), data...)
	corrupt[secs[1][0]+8+secs[1][1]/2] ^= 0x40

	cfg := fastConfig()
	cfg.Logf = t.Logf
	s2 := newTestServer(t, cfg)
	restored, err := s2.LoadCheckpoint(bytes.NewReader(corrupt))
	if err != nil {
		t.Fatalf("bit-flipped checkpoint failed whole restore: %v", err)
	}
	if restored != 1 {
		t.Fatalf("restored %d entries, want 1 (the undamaged one)", restored)
	}
	if got := s2.Stats().CheckpointSkips; got != 1 {
		t.Fatalf("CheckpointSkips = %d, want 1", got)
	}

	// Exactly one cluster (the damaged section's) boots cold and retrains on
	// demand; the other serves warm with zero retraining.
	warmed, colded := 0, 0
	for c := 0; c < 2; c++ {
		resp, err := s2.Allocate(ctx, AllocateRequest{Signature: []float64{float64(c)}})
		if err != nil {
			t.Fatal(err)
		}
		switch resp.Cache {
		case CacheWarm:
			warmed++
		case CacheMiss:
			colded++
		default:
			t.Fatalf("cluster %d outcome = %q", c, resp.Cache)
		}
	}
	if warmed != 1 || colded != 1 {
		t.Fatalf("warm=%d cold=%d, want exactly one of each", warmed, colded)
	}
}

// TestCheckpointTruncationKeepsPrefix: a torn tail (crash mid-write without
// the atomic rename, or a short copy) restores every intact leading section
// and skips the rest without failing.
func TestCheckpointTruncationKeepsPrefix(t *testing.T) {
	data := saveTwoClusterCheckpoint(t, newTestServer(t, fastConfig()))
	secs := sectionOffsets(t, data)
	// Cut inside the last section's payload.
	cut := secs[2][0] + 8 + secs[2][1]/2
	cfg := fastConfig()
	cfg.Logf = t.Logf
	s2 := newTestServer(t, cfg)
	restored, err := s2.LoadCheckpoint(bytes.NewReader(data[:cut]))
	if err != nil {
		t.Fatalf("truncated checkpoint failed whole restore: %v", err)
	}
	if restored != 1 {
		t.Fatalf("restored %d entries from truncated file, want 1", restored)
	}
	if got := s2.Stats().CheckpointSkips; got != 1 {
		t.Fatalf("CheckpointSkips = %d, want 1", got)
	}
	// Garbage that never framed a section still fails loudly.
	s3 := newTestServer(t, fastConfig())
	garbage := append(append([]byte(nil), checkpointMagic...), 0xFF, 0xFF)
	if _, err := s3.LoadCheckpoint(bytes.NewReader(garbage)); err == nil {
		t.Fatal("headerless garbage accepted")
	}
}

// TestCheckpointFileRoundTrip covers the atomic file helpers: save, reload,
// overwrite-in-place, and the boot-cold contract for a missing file.
func TestCheckpointFileRoundTrip(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	path := filepath.Join(dir, "dcta.ckpt")

	s := newTestServer(t, fastConfig())
	if n, err := s.LoadCheckpointFile(path); n != 0 || err != nil {
		t.Fatalf("missing checkpoint file: n=%d err=%v, want 0/nil", n, err)
	}
	for c := 0; c < 2; c++ {
		if _, err := s.Allocate(ctx, AllocateRequest{Signature: []float64{float64(c)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SaveCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	// Overwrite in place — the rename path, not the create path.
	if err := s.SaveCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	// No temp files left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("checkpoint dir has %d files, want 1: %v", len(entries), entries)
	}

	s2 := newTestServer(t, fastConfig())
	restored, err := s2.LoadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if restored != 2 {
		t.Fatalf("restored %d entries, want 2", restored)
	}
	resp, err := s2.Allocate(ctx, AllocateRequest{Signature: []float64{0}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cache != CacheWarm {
		t.Fatalf("post-restore cache = %q, want warm", resp.Cache)
	}
}

func TestCheckpointRejectsCorruptInput(t *testing.T) {
	s := newTestServer(t, fastConfig())
	if _, err := s.LoadCheckpoint(strings.NewReader("{not json")); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
	if _, err := s.LoadCheckpoint(strings.NewReader(`{"version":99,"entries":[]}`)); err == nil {
		t.Fatal("future version accepted")
	}
}

// TestCheckpointSkipsOutOfRangeClusters covers a checkpoint that outlived
// its store: entries keyed past the store length are skipped, not fatal.
func TestCheckpointSkipsOutOfRangeClusters(t *testing.T) {
	ctx := context.Background()
	s := newTestServer(t, fastConfig())
	if _, err := s.Allocate(ctx, AllocateRequest{Signature: []float64{0}}); err != nil {
		t.Fatal(err)
	}
	var data bytes.Buffer
	data.Write(checkpointMagic)
	if err := writeSection(&data, checkpoint{Version: checkpointVersion}); err != nil {
		t.Fatal(err)
	}
	for _, e := range s.cache.snapshot() {
		policy, err := e.crl.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if err := writeSection(&data, checkpointEntry{
			Cluster: 7, TrainedAt: e.trainedAt, Importance: e.imp, Policy: policy,
		}); err != nil {
			t.Fatal(err)
		}
	}
	s2 := newTestServer(t, fastConfig())
	restored, err := s2.LoadCheckpoint(&data)
	if err != nil {
		t.Fatal(err)
	}
	if restored != 0 {
		t.Fatalf("restored %d out-of-range entries, want 0", restored)
	}
}
