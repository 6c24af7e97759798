// Package checkpoint persists completed pipeline stages so a crashed or
// killed join can restart without redoing upstream work — the durability
// Hadoop got for free from inter-job HDFS output and this in-process
// engine has to build itself (DESIGN.md §9).
//
// A checkpoint file holds one stage's complete result: its output KVs in
// the spill run codec (so replayed values decode to the same concrete
// types the shuffle restores), the job's counters, and its metrics. It is
// a framed file (internal/frame, DESIGN.md §16) whose header is the
// manifest and whose sections are the records, keyed by a stage
// fingerprint covering the pipeline identity, caller configuration and
// the stage's full input content. A loader that finds an invalid file, an
// undecodable body or a fingerprint mismatch discards the file and
// reports a miss — stale or corrupt state triggers recompute, never a
// wrong resume.
package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"fsjoin/internal/frame"
)

// formatVersion is Manifest.Format; it must change whenever the manifest
// or the meaning of the sections does.
const formatVersion = 2

// Record is one persisted output pair.
type Record struct {
	Key   string
	Value any
}

// Manifest describes one checkpointed stage. Its JSON is the file's
// header section.
type Manifest struct {
	// Format is the writer's format version.
	Format int `json:"format"`
	// Pipeline and Stage locate the stage within its pipeline.
	Pipeline string `json:"pipeline"`
	Stage    int    `json:"stage"`
	// Job is the stage's job name.
	Job string `json:"job"`
	// Fingerprint is the hex stage fingerprint the loader must match.
	Fingerprint string `json:"fingerprint"`
	// Records is the number of records in the sections that follow.
	Records int64 `json:"records"`
	// Counters is the stage's full counter snapshot.
	Counters map[string]int64 `json:"counters,omitempty"`
	// Metrics is the stage's metrics, marshalled by the engine (the
	// checkpoint layer treats it as opaque JSON so it does not import the
	// engine).
	Metrics json.RawMessage `json:"metrics,omitempty"`
}

// Snapshot is one loaded checkpoint.
type Snapshot struct {
	Manifest Manifest
	Records  []Record
}

// LoadStatus classifies a Load outcome.
type LoadStatus int

// Load outcomes. Stale and Corrupt both remove the offending file and
// lead the caller to recompute; they are distinguished so callers can
// count corruption separately from ordinary configuration drift.
const (
	// Hit: a valid checkpoint with the wanted fingerprint was replayed.
	Hit LoadStatus = iota
	// Miss: no checkpoint exists for the stage.
	Miss
	// Stale: a valid checkpoint exists but its fingerprint differs (the
	// configuration or input changed); it was discarded.
	Stale
	// Corrupt: the file failed its checksum or could not be decoded; it
	// was discarded.
	Corrupt
)

// String implements fmt.Stringer.
func (s LoadStatus) String() string {
	switch s {
	case Hit:
		return "hit"
	case Miss:
		return "miss"
	case Stale:
		return "stale"
	case Corrupt:
		return "corrupt"
	default:
		return fmt.Sprintf("LoadStatus(%d)", int(s))
	}
}

// Store is one checkpoint directory.
type Store struct {
	dir string
}

// Open creates the directory if needed and sweeps temp files left in it by
// writers that died mid-save, so a crashed run's partial checkpoint can
// never be confused with a durable one. Directories below it are left
// alone: another writer may be publishing there.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("checkpoint: empty directory")
	}
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if err := frame.SweepTemps(dir, false); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Clear removes every completed checkpoint file in the store, leaving
// unrelated files alone. Used by callers that want fresh-run semantics in
// a reused directory.
func (s *Store) Clear() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".ckpt") {
			if err := os.Remove(filepath.Join(s.dir, e.Name())); err != nil {
				return fmt.Errorf("checkpoint: %w", err)
			}
		}
	}
	return nil
}

// safeName maps a job name onto a conservative character set so it is
// always a valid path component.
func safeName(job string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '_', r == '-':
			return r
		default:
			return '_'
		}
	}, job)
}

// fileName derives the stage's checkpoint path.
func (s *Store) fileName(stage int, job string) string {
	return filepath.Join(s.dir, fmt.Sprintf("stage-%03d-%s.ckpt", stage, safeName(job)))
}

// Save atomically and durably persists one stage (frame.Publish), so
// readers only ever observe complete checkpoints. A value without a spill
// codec aborts the write with spill.ErrNoCodec.
func (s *Store) Save(m Manifest, recs []Record) error {
	m.Format = formatVersion
	m.Records = int64(len(recs))
	manifest, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	err = frame.Publish(s.dir, filepath.Base(s.fileName(m.Stage, m.Job)), manifest, func(w *frame.Writer) error {
		for _, r := range recs {
			if err := w.Record(r.Key, r.Value); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// Load replays the stage's checkpoint if a valid one with the wanted
// fingerprint exists. Every section's checksum is verified before a
// single record is parsed, so corrupt content is never interpreted; any
// Stale or Corrupt file is removed so it cannot shadow a future save.
func (s *Store) Load(stage int, job, fingerprint string) (*Snapshot, LoadStatus) {
	name := s.fileName(stage, job)
	raw, err := os.ReadFile(name)
	if errors.Is(err, os.ErrNotExist) {
		return nil, Miss
	}
	if err != nil {
		os.Remove(name)
		return nil, Corrupt
	}
	snap, err := decode(raw)
	if err != nil {
		os.Remove(name)
		return nil, Corrupt
	}
	if snap.Manifest.Fingerprint != fingerprint ||
		snap.Manifest.Stage != stage || snap.Manifest.Job != job {
		os.Remove(name)
		return nil, Stale
	}
	return snap, Hit
}

// decode parses and fully validates one checkpoint file image.
func decode(raw []byte) (*Snapshot, error) {
	f, err := frame.Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	snap := &Snapshot{}
	dec := json.NewDecoder(bytes.NewReader(f.Header))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&snap.Manifest); err != nil {
		return nil, fmt.Errorf("checkpoint: manifest: %w", err)
	}
	if snap.Manifest.Format != formatVersion {
		return nil, fmt.Errorf("checkpoint: unsupported format %d", snap.Manifest.Format)
	}
	snap.Records = make([]Record, 0, min(max(snap.Manifest.Records, 0), 1<<16))
	n, err := f.Records(func(key string, v any) {
		snap.Records = append(snap.Records, Record{Key: key, Value: v})
	})
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if n != snap.Manifest.Records {
		return nil, fmt.Errorf("checkpoint: %d records, manifest says %d", n, snap.Manifest.Records)
	}
	return snap, nil
}
