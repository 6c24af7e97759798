// Package checkpoint persists completed pipeline stages so a crashed or
// killed join can restart without redoing upstream work — the durability
// Hadoop got for free from inter-job HDFS output and this in-process
// engine has to build itself (DESIGN.md §9).
//
// A checkpoint file holds one stage's complete result: its output KVs in
// the spill run codec (so replayed values decode to the same concrete
// types the shuffle restores), the job's counters, and its metrics. Files
// are written to a temp name and atomically renamed into place, carry a
// SHA-256 trailer over every preceding byte, and are keyed by a stage
// fingerprint covering the pipeline identity, caller configuration and
// the stage's full input content. A loader that finds a bad checksum, an
// undecodable body or a fingerprint mismatch discards the file and
// reports a miss — stale or corrupt state triggers recompute, never a
// wrong resume.
package checkpoint

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"fsjoin/internal/spill"
)

// magic opens every checkpoint file; the trailing digit is the format
// version and must change whenever the manifest or record framing does.
const magic = "FSCKPT01"

// tmpPrefix names in-flight checkpoint writes. Open sweeps leftovers from
// crashed writers, so an aborted save never leaks files into the
// directory (the same leak-checked discipline the spill path follows).
const tmpPrefix = ".tmp-ckpt-"

// checksumLen is the length of the SHA-256 trailer.
const checksumLen = sha256.Size

// ErrUnencodable marks a snapshot whose values have no spill codec. The
// pipeline treats it as "this stage cannot be checkpointed" and keeps
// running — mirroring the spill buffer, which pins unencodable values in
// memory instead of failing the job.
var ErrUnencodable = errors.New("checkpoint: value has no spill codec")

// saveKillHook, when non-nil, fires at the named durability boundaries of
// Save ("save.start" after the temp file exists, "save.synced" after the
// fsync but before the rename, "save.renamed" after the rename). The
// crash-kill harness uses it to die mid-protocol and prove that recovery
// never observes a partial snapshot. Nil in production.
var saveKillHook func(point string)

// SetKillHook installs (or, with nil, removes) the save-boundary kill
// hook. Test-only; not safe to flip while saves are in flight.
func SetKillHook(fn func(point string)) { saveKillHook = fn }

func killPoint(p string) {
	if saveKillHook != nil {
		saveKillHook(p)
	}
}

// Record is one persisted output pair.
type Record struct {
	Key   string
	Value any
}

// Manifest describes one checkpointed stage. It is embedded in the file
// as JSON between the magic and the record frames.
type Manifest struct {
	// Format is the writer's format version (currently 1).
	Format int `json:"format"`
	// Pipeline and Stage locate the stage within its pipeline.
	Pipeline string `json:"pipeline"`
	Stage    int    `json:"stage"`
	// Job is the stage's job name.
	Job string `json:"job"`
	// Fingerprint is the hex stage fingerprint the loader must match.
	Fingerprint string `json:"fingerprint"`
	// Records is the number of record frames that follow the manifest.
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

// Open creates the directory if needed and sweeps temp files left by
// writers that died mid-save, so a crashed run's partial checkpoint can
// never be confused with a durable one.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("checkpoint: empty directory")
	}
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	return &Store{dir: dir}, nil
}

// SweepTemps removes in-flight temp files under dir and every directory
// below it, leaving durable checkpoints in place. The serving layer calls
// it on shutdown: jobs cancelled mid-save (deadline, drain) may have died
// between CreateTemp and the atomic rename, and their partials must not
// outlive the server. A missing dir is not an error.
func SweepTemps(dir string) error {
	if dir == "" {
		return nil
	}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		if !d.IsDir() && strings.HasPrefix(d.Name(), tmpPrefix) {
			os.Remove(path)
		}
		return nil
	})
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

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

// SafeName maps a job name onto a conservative character set so it is
// always a valid path component.
func SafeName(job string) string {
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
	return filepath.Join(s.dir, fmt.Sprintf("stage-%03d-%s.ckpt", stage, SafeName(job)))
}

// Save atomically persists one stage: the file is streamed to a temp name
// (hashed as it is written), fsynced, then renamed into place, so readers
// only ever observe complete checkpoints, and the directory is fsynced so
// the rename is durable when Save returns. A value without a spill codec
// aborts the write, removes the temp file and returns ErrUnencodable.
func (s *Store) Save(m Manifest, recs []Record) (err error) {
	m.Format = 1
	m.Records = int64(len(recs))
	manifest, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	f, err := os.CreateTemp(s.dir, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	killPoint("save.start")
	h := sha256.New()
	bw := bufio.NewWriterSize(io.MultiWriter(f, h), 64<<10)
	var scratch []byte
	write := func(b []byte) {
		if err == nil {
			_, err = bw.Write(b)
		}
	}
	write([]byte(magic))
	scratch = binary.AppendUvarint(scratch[:0], uint64(len(manifest)))
	write(scratch)
	write(manifest)
	for _, r := range recs {
		if scratch, err = spill.AppendRecord(scratch[:0], r.Key, r.Value); err != nil {
			err = fmt.Errorf("%w: %v", ErrUnencodable, err)
			return err
		}
		write(scratch)
	}
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		_, err = f.Write(h.Sum(nil))
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	killPoint("save.synced")
	if err = os.Rename(tmp, s.fileName(m.Stage, m.Job)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	killPoint("save.renamed")
	if err = SyncDir(s.dir); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// SyncDir fsyncs a directory so a freshly created or renamed entry
// survives a crash — the last step of every atomic publish in the
// repository. Filesystems that refuse to sync directories are tolerated
// (their rename durability is their own contract).
func SyncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if errors.Is(err, os.ErrInvalid) || errors.Is(err, os.ErrPermission) {
		return nil
	}
	return err
}

// Load replays the stage's checkpoint if a valid one with the wanted
// fingerprint exists. The checksum is verified over the whole file before
// a single byte is parsed, so corrupt content is never interpreted; any
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
	if len(raw) < len(magic)+checksumLen {
		return nil, errors.New("checkpoint: short file")
	}
	body, sum := raw[:len(raw)-checksumLen], raw[len(raw)-checksumLen:]
	if got := sha256.Sum256(body); !bytes.Equal(got[:], sum) {
		return nil, errors.New("checkpoint: checksum mismatch")
	}
	if string(body[:len(magic)]) != magic {
		return nil, errors.New("checkpoint: bad magic")
	}
	d := spill.NewDec(body[len(magic):])
	manifest := d.String()
	if d.Err() != nil {
		return nil, fmt.Errorf("checkpoint: %w", d.Err())
	}
	snap := &Snapshot{}
	dec := json.NewDecoder(strings.NewReader(manifest))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&snap.Manifest); err != nil {
		return nil, fmt.Errorf("checkpoint: manifest: %w", err)
	}
	if snap.Manifest.Format != 1 {
		return nil, fmt.Errorf("checkpoint: unsupported format %d", snap.Manifest.Format)
	}
	n := snap.Manifest.Records
	if n < 0 {
		return nil, errors.New("checkpoint: negative record count")
	}
	snap.Records = make([]Record, 0, min(n, 1<<16))
	for i := int64(0); i < n; i++ {
		key, v := d.Record()
		if d.Err() != nil {
			return nil, fmt.Errorf("checkpoint: record %d: %w", i, d.Err())
		}
		snap.Records = append(snap.Records, Record{Key: key, Value: v})
	}
	if d.Rest() != 0 {
		return nil, errors.New("checkpoint: trailing bytes after records")
	}
	return snap, nil
}
