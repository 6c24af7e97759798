package checkpoint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fsjoin/internal/frame"
	"fsjoin/internal/spill"
)

// FuzzDecode fuzzes what is the checkpoint's own inside a valid envelope
// (arbitrary file bytes are frame.FuzzFrame's business): an arbitrary
// manifest header and an arbitrary record section either fail decoding
// (→ recompute) or decode to a well-formed snapshot — never a crash, never
// a wrong resume smuggled past the fingerprint check. Seeds include a valid
// pair so the fuzzer explores the accept path's neighbourhood.
func FuzzDecode(f *testing.F) {
	m := Manifest{
		Format:      formatVersion,
		Pipeline:    "fuzz-pipe",
		Stage:       1,
		Job:         "job",
		Fingerprint: "fp",
		Records:     3,
		Counters:    map[string]int64{"n": 1},
		Metrics:     json.RawMessage(`{"Job":"job"}`),
	}
	recs := []Record{
		{Key: "a", Value: int(1)},
		{Key: "b", Value: "text"},
		{Key: "c", Value: []uint32{9, 8, 7}},
	}
	manifest, err := json.Marshal(m)
	if err != nil {
		f.Fatal(err)
	}
	var seed []byte
	for _, r := range recs {
		if seed, err = spill.AppendRecord(seed, r.Key, r.Value); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(manifest, seed)
	f.Add(manifest, seed[:len(seed)/2])
	f.Add([]byte(`{"format":2,"records":-1}`), seed)
	f.Add([]byte("{}"), []byte{})
	// One record under a 9-byte key, longer than any stage emits: it decodes
	// here, and the pipeline's replay takes it for corrupt.
	m.Records = 1
	one, err := json.Marshal(m)
	if err != nil {
		f.Fatal(err)
	}
	long, err := spill.AppendRecord(nil, "123456789", int64(1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(one, long)

	f.Fuzz(func(t *testing.T, manifest, body []byte) {
		dir := t.TempDir()
		err := frame.Publish(dir, "img", manifest, func(w *frame.Writer) error {
			if len(body) == 0 {
				return nil
			}
			return w.Section(body)
		})
		if err != nil {
			return // not a file the envelope would ever write
		}
		data, err := os.ReadFile(filepath.Join(dir, "img"))
		if err != nil {
			t.Fatal(err)
		}
		snap, err := decode(data)
		if err != nil {
			return // rejected: the loader reports Corrupt and recomputes
		}
		// Accepted images must be internally consistent...
		if int64(len(snap.Records)) != snap.Manifest.Records {
			t.Fatalf("accepted image with %d records but manifest says %d",
				len(snap.Records), snap.Manifest.Records)
		}
		if snap.Manifest.Format != formatVersion {
			t.Fatalf("accepted unsupported format %d", snap.Manifest.Format)
		}
		// ...and record bytes decode one way only: the seed's bytes are the
		// seed's records.
		if bytes.Equal(body, seed) && !reflect.DeepEqual(snap.Records, recs) {
			t.Fatalf("seed body decoded different records: %#v", snap.Records)
		}
	})
}

// FuzzLoadViaStore drives the full Load path (file on disk, removal on
// rejection) with mutated images, asserting a non-Hit never leaves the
// file behind to shadow a future save.
func FuzzLoadViaStore(f *testing.F) {
	f.Add([]byte("FSCKPT01 a file of the previous format"), uint8(0))
	f.Add([]byte("FSFRAME1 garbage"), uint8(0))
	f.Add([]byte{}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, flip uint8) {
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		name := s.fileName(0, "j")
		if err := os.WriteFile(name, data, 0o600); err != nil {
			t.Fatal(err)
		}
		snap, status := s.Load(0, "j", "want-fp")
		switch status {
		case Hit:
			if snap.Manifest.Fingerprint != "want-fp" {
				t.Fatal("hit with mismatched fingerprint")
			}
		case Miss, Stale, Corrupt:
			if _, err := os.Stat(name); err == nil && status != Miss {
				t.Fatalf("status %v left the file in place", status)
			}
		}
		// The store directory must hold nothing but completed checkpoints.
		entries, _ := os.ReadDir(dir)
		for _, e := range entries {
			if filepath.Ext(e.Name()) != ".ckpt" {
				t.Fatalf("unexpected file %s in store", e.Name())
			}
		}
	})
}
