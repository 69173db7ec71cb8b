package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
)

// checkpointVersion guards the wire format. Version 2 frames every section
// with a length + CRC so a torn write or a flipped bit damages one cluster's
// snapshot, not the whole restore.
const checkpointVersion = 2

// checkpointMagic opens every checkpoint; a stream without it is refused.
var checkpointMagic = []byte("DCTACKP\x02")

// checkpointCRC is CRC32-Castagnoli, hardware-accelerated on amd64/arm64.
var checkpointCRC = crc32.MakeTable(crc32.Castagnoli)

// maxSectionBytes bounds a single framed section; a length beyond this means
// the frame stream itself is corrupt (not just one payload), so the restore
// stops rather than reading garbage.
const maxSectionBytes = 64 << 20

// checkpoint is the persisted form of the policy cache. Each entry carries a
// full core.CRL snapshot (config + template + policy weights), so a restart
// resumes serving warm without retraining ("the training phase merely needs
// to be conducted once in advance" — paper footnote 1). The historical store
// itself is the deployment's data and is reattached on load, exactly like
// core.LoadCRL.
//
// On disk (v2) the layout is:
//
//	magic | section(header) | section(entry 0) | section(entry 1) | ...
//
// where each section is [4-byte BE payload length][4-byte BE CRC32-C][JSON].
type checkpoint struct {
	Version int               `json:"version"`
	SavedAt time.Time         `json:"saved_at"`
	Entries []checkpointEntry `json:"entries,omitempty"`
}

type checkpointEntry struct {
	Cluster    int       `json:"cluster"`
	TrainedAt  time.Time `json:"trained_at"`
	Importance []float64 `json:"importance"`
	// Provenance is "speculative" for pre-trained policies no request has
	// confirmed yet — they restore with the same discounted TTL/drift budget
	// they had in the saving process. Absent (pre-PR7 checkpoints included)
	// means demand-confirmed; such entries restore as plain warm policies.
	Provenance string          `json:"provenance,omitempty"`
	Policy     json.RawMessage `json:"policy"`
}

// provSpeculativeName is checkpointEntry.Provenance's wire value for
// unpromoted speculative entries.
const provSpeculativeName = "speculative"

// provReplicaName is checkpointEntry.Provenance's wire value for policies a
// peer replicated here: they restore with the same TTL exemption they had.
const provReplicaName = "replica"

// writeSection frames one JSON payload.
func writeSection(w io.Writer, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	var frame [8]byte
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.Checksum(payload, checkpointCRC))
	if _, err := w.Write(frame[:]); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// readSection returns the next framed payload and whether its CRC matched.
// io.EOF means a clean end of stream; any other error means the framing
// itself is broken (truncated frame, absurd length) and the stream cannot be
// advanced further.
func readSection(r io.Reader) (payload []byte, ok bool, err error) {
	var frame [8]byte
	if _, err := io.ReadFull(r, frame[:]); err != nil {
		if err == io.EOF {
			return nil, false, io.EOF
		}
		return nil, false, fmt.Errorf("truncated section frame: %w", err)
	}
	n := binary.BigEndian.Uint32(frame[0:4])
	if n > maxSectionBytes {
		return nil, false, fmt.Errorf("section length %d exceeds limit", n)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, false, fmt.Errorf("truncated section payload: %w", err)
	}
	want := binary.BigEndian.Uint32(frame[4:8])
	return payload, crc32.Checksum(payload, checkpointCRC) == want, nil
}

// SaveCheckpoint serializes every resident, healthy cache entry, most
// recently used first, in the CRC-framed v2 format.
func (s *Server) SaveCheckpoint(w io.Writer) error {
	return s.SaveCheckpointFor(w, nil)
}

// SaveCheckpointFor is SaveCheckpoint restricted to the clusters keep admits
// (nil keeps everything). The cluster tier uses it to export exactly the
// sections a joining shard owns — the stream is a complete, self-contained
// v2 checkpoint either way.
func (s *Server) SaveCheckpointFor(w io.Writer, keep func(cluster int) bool) error {
	if _, err := w.Write(checkpointMagic); err != nil {
		return fmt.Errorf("serve: checkpoint write: %w", err)
	}
	header := checkpoint{Version: checkpointVersion, SavedAt: s.cfg.Now()}
	if err := writeSection(w, header); err != nil {
		return fmt.Errorf("serve: checkpoint header: %w", err)
	}
	for _, e := range s.cache.snapshot() {
		if keep != nil && !keep(e.key) {
			continue
		}
		if err := s.writeEntrySection(w, e); err != nil {
			return err
		}
	}
	return nil
}

// SaveCheckpointPage is SaveCheckpointFor in ascending-cluster order with a
// resumable cursor: only clusters strictly greater than after are written,
// at most limit entries (limit <= 0 means all). The deterministic order is
// what makes GET /v1/checkpoint?after=K chunkable — a puller walks the key
// space in pages, and a page short of limit entries signals the end. Returns
// the number of entry sections written.
func (s *Server) SaveCheckpointPage(w io.Writer, keep func(cluster int) bool, after, limit int) (int, error) {
	entries := s.cache.snapshot()
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	if _, err := w.Write(checkpointMagic); err != nil {
		return 0, fmt.Errorf("serve: checkpoint write: %w", err)
	}
	header := checkpoint{Version: checkpointVersion, SavedAt: s.cfg.Now()}
	if err := writeSection(w, header); err != nil {
		return 0, fmt.Errorf("serve: checkpoint header: %w", err)
	}
	written := 0
	for _, e := range entries {
		if e.key <= after || (keep != nil && !keep(e.key)) {
			continue
		}
		if limit > 0 && written >= limit {
			break
		}
		if err := s.writeEntrySection(w, e); err != nil {
			return written, err
		}
		written++
	}
	return written, nil
}

// writeEntrySection frames one cache entry in the checkpoint wire format.
func (s *Server) writeEntrySection(w io.Writer, e *policyEntry) error {
	policy, err := e.crl.MarshalJSON()
	if err != nil {
		return fmt.Errorf("serve: checkpoint cluster %d: %w", e.key, err)
	}
	entry := checkpointEntry{
		Cluster:    e.key,
		TrainedAt:  e.trainedAt,
		Importance: e.imp,
		Policy:     policy,
	}
	switch e.prov {
	case provSpeculative:
		if p := e.promotedAt.Load(); p != 0 {
			// Promoted by real traffic: persists as a demand-confirmed
			// policy whose TTL clock started at promotion.
			entry.TrainedAt = time.Unix(0, p)
		} else {
			entry.Provenance = provSpeculativeName
		}
	case provReplica:
		entry.Provenance = provReplicaName
	}
	if err := writeSection(w, entry); err != nil {
		return fmt.Errorf("serve: checkpoint cluster %d: %w", e.key, err)
	}
	return nil
}

// LoadCheckpoint restores cache entries saved by SaveCheckpoint, returning
// how many were installed. Damage is contained per section: an entry whose
// CRC fails, whose policy no longer decodes, or whose cluster index outlived
// the store is skipped (logged and counted in Stats.CheckpointSkips) and the
// server simply boots cold for that cluster. Only structural damage — a bad
// magic/header or a truncated frame stream — aborts the restore, and even
// then the entries already installed stay.
func (s *Server) LoadCheckpoint(r io.Reader) (int, error) {
	return s.loadCheckpointStream(r, s.restoreEntry)
}

// loadCheckpointStream walks a checkpoint stream and calls apply per
// undamaged entry section, counting the entries apply accepted. Damage
// containment is apply-independent: readSection framing and per-section CRC
// decide what apply ever sees.
func (s *Server) loadCheckpointStream(r io.Reader, apply func(checkpointEntry) bool) (int, error) {
	magic := make([]byte, len(checkpointMagic))
	n, _ := io.ReadFull(r, magic)
	if !bytes.Equal(magic[:n], checkpointMagic) {
		return 0, fmt.Errorf("serve: checkpoint decode: bad magic")
	}

	restored := 0
	sawHeader := false
	for {
		payload, ok, err := readSection(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			// Framing lost — cannot locate later sections. Keep what loaded.
			if restored > 0 || sawHeader {
				s.skipCheckpointSection("rest of file", err)
				break
			}
			return restored, fmt.Errorf("serve: checkpoint decode: %w", err)
		}
		if !sawHeader {
			sawHeader = true
			if !ok {
				s.skipCheckpointSection("header", fmt.Errorf("crc mismatch"))
				continue
			}
			var header checkpoint
			if err := json.Unmarshal(payload, &header); err != nil {
				return restored, fmt.Errorf("serve: checkpoint header decode: %w", err)
			}
			if header.Version != checkpointVersion {
				return restored, fmt.Errorf("serve: checkpoint version %d, want %d",
					header.Version, checkpointVersion)
			}
			continue
		}
		if !ok {
			s.skipCheckpointSection("entry", fmt.Errorf("crc mismatch"))
			continue
		}
		var entry checkpointEntry
		if err := json.Unmarshal(payload, &entry); err != nil {
			s.skipCheckpointSection("entry", err)
			continue
		}
		if apply(entry) {
			restored++
		}
	}
	return restored, nil
}

// restoreEntry installs one checkpointed cluster, reporting whether it took.
// Failures skip the entry: the cluster boots cold and retrains on demand.
func (s *Server) restoreEntry(e checkpointEntry) bool {
	crl, ok := s.decodeEntryPolicy(e)
	if !ok {
		return false
	}
	prov := provCheckpoint
	switch e.Provenance {
	case provSpeculativeName:
		prov = provSpeculative
	case provReplicaName:
		prov = provReplica
	}
	s.cache.install(e.Cluster, crl, e.Importance, e.TrainedAt, prov)
	return true
}

// decodeEntryPolicy resolves one checkpoint entry's policy against this
// server's store, or reports why it cannot install (a nil error with ok ==
// false means the entry outlived the store — not damage).
func (s *Server) decodeEntryPolicy(e checkpointEntry) (crl *core.CRL, ok bool) {
	if _, err := s.store.At(e.Cluster); err != nil {
		return nil, false // checkpoint outlived its history; not damage
	}
	sub, err := s.clusterStore(e.Cluster)
	if err != nil {
		s.skipCheckpointSection(fmt.Sprintf("cluster %d store", e.Cluster), err)
		return nil, false
	}
	// Restored onto the server's template, like every policy trained here.
	crl, err = core.LoadCRLOn(s.template, e.Policy, sub)
	if err != nil {
		s.skipCheckpointSection(fmt.Sprintf("cluster %d policy", e.Cluster), err)
		return nil, false
	}
	return crl, true
}

func (s *Server) skipCheckpointSection(what string, err error) {
	s.ckptSkips.Add(1)
	s.cfg.Logf("serve: checkpoint: skipping %s: %v", what, err)
}

// SaveCheckpointFile writes the checkpoint atomically: a temp file in the
// same directory is fsynced, renamed over path, and the directory fsynced,
// so a crash mid-save leaves either the old checkpoint or the new one —
// never a torn file.
func (s *Server) SaveCheckpointFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("serve: checkpoint temp: %w", err)
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err := s.SaveCheckpoint(tmp); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("serve: checkpoint sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("serve: checkpoint close: %w", err)
	}
	name := tmp.Name()
	tmp = nil
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("serve: checkpoint rename: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync() // best effort; not all filesystems support dir fsync
		d.Close()
	}
	return nil
}

// LoadCheckpointFile restores from a checkpoint file written by
// SaveCheckpointFile. A missing file is not an error — the server simply
// boots cold — so callers can pass the same path unconditionally.
func (s *Server) LoadCheckpointFile(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("serve: checkpoint open: %w", err)
	}
	defer f.Close()
	return s.LoadCheckpoint(f)
}
