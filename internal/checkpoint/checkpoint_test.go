package checkpoint

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"fsjoin/internal/frame"
	"fsjoin/internal/spill"
)

// testSnapshot is a representative stage result: builtin-codec values of
// several types, counters and opaque metrics.
func testSnapshot() (Manifest, []Record) {
	m := Manifest{
		Pipeline:    "test-pipe",
		Stage:       2,
		Job:         "verify",
		Fingerprint: "abc123",
		Counters:    map[string]int64{"pairs": 7, "spill.runs": 0},
		Metrics:     json.RawMessage(`{"Job":"verify","OutputRecords":3}`),
	}
	recs := []Record{
		{Key: "\x00\x00\x00\x01", Value: int(42)},
		{Key: "k2", Value: "hello"},
		{Key: "k3", Value: []uint32{1, 2, 3}},
		{Key: "", Value: nil},
	}
	return m, recs
}

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSaveLoadRoundtrip(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	m, recs := testSnapshot()
	if err := s.Save(m, recs); err != nil {
		t.Fatal(err)
	}
	snap, status := s.Load(2, "verify", "abc123")
	if status != Hit {
		t.Fatalf("Load status = %v, want hit", status)
	}
	if !reflect.DeepEqual(snap.Records, recs) {
		t.Errorf("records = %#v, want %#v", snap.Records, recs)
	}
	if !reflect.DeepEqual(snap.Manifest.Counters, m.Counters) {
		t.Errorf("counters = %v, want %v", snap.Manifest.Counters, m.Counters)
	}
	if string(snap.Manifest.Metrics) != string(m.Metrics) {
		t.Errorf("metrics = %s, want %s", snap.Manifest.Metrics, m.Metrics)
	}
	if snap.Manifest.Records != int64(len(recs)) {
		t.Errorf("manifest.Records = %d, want %d", snap.Manifest.Records, len(recs))
	}
}

func TestLoadMiss(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	if snap, status := s.Load(0, "nothing", "fp"); status != Miss || snap != nil {
		t.Fatalf("Load = (%v, %v), want (nil, miss)", snap, status)
	}
}

func TestStaleFingerprintDiscarded(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	m, recs := testSnapshot()
	if err := s.Save(m, recs); err != nil {
		t.Fatal(err)
	}
	if _, status := s.Load(2, "verify", "different-fp"); status != Stale {
		t.Fatalf("Load with wrong fingerprint = %v, want stale", status)
	}
	// The stale file must be gone so it cannot shadow a future save.
	if _, status := s.Load(2, "verify", "abc123"); status != Miss {
		t.Fatalf("Load after stale discard = %v, want miss", status)
	}
}

// TestCorruptionDetected flips every byte position in a valid checkpoint
// file (in larger strides for speed) and asserts Load never yields a hit
// with altered content.
func TestCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	m, recs := testSnapshot()
	if err := s.Save(m, recs); err != nil {
		t.Fatal(err)
	}
	name := s.fileName(2, "verify")
	orig, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < len(orig); pos += 7 {
		mut := append([]byte(nil), orig...)
		mut[pos] ^= 0x5a
		if err := os.WriteFile(name, mut, 0o600); err != nil {
			t.Fatal(err)
		}
		if _, status := s.Load(2, "verify", "abc123"); status != Corrupt {
			t.Fatalf("byte %d flipped: Load = %v, want corrupt", pos, status)
		}
		if _, err := os.Stat(name); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("byte %d flipped: corrupt file not removed", pos)
		}
	}
	// Truncations likewise.
	for _, n := range []int{0, 1, 8, len(orig) / 2, len(orig) - 1} {
		if err := os.WriteFile(name, orig[:n], 0o600); err != nil {
			t.Fatal(err)
		}
		if _, status := s.Load(2, "verify", "abc123"); status != Corrupt {
			t.Fatalf("truncated to %d bytes: Load = %v, want corrupt", n, status)
		}
	}
}

func TestOpenSweepsTempFiles(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, frame.TempPrefix+"12345")
	if err := os.WriteFile(tmp, []byte("partial write from a crashed save"), 0o600); err != nil {
		t.Fatal(err)
	}
	// Below dir another writer may be mid-publish: its temp file is not ours.
	sub := filepath.Join(dir, "shuffle")
	inflight := filepath.Join(sub, frame.TempPrefix+"67890")
	if err := os.Mkdir(sub, 0o700); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(inflight, []byte("someone else's publish"), 0o600); err != nil {
		t.Fatal(err)
	}
	mustOpen(t, dir)
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("Open did not sweep the leftover temp file")
	}
	if _, err := os.Stat(inflight); err != nil {
		t.Fatalf("Open swept below its directory: %v", err)
	}
}

func TestClear(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	m, recs := testSnapshot()
	if err := s.Save(m, recs); err != nil {
		t.Fatal(err)
	}
	other := filepath.Join(dir, "README")
	if err := os.WriteFile(other, []byte("not a checkpoint"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := s.Clear(); err != nil {
		t.Fatal(err)
	}
	if _, status := s.Load(2, "verify", "abc123"); status != Miss {
		t.Fatal("checkpoint survived Clear")
	}
	if _, err := os.Stat(other); err != nil {
		t.Fatal("Clear removed an unrelated file")
	}
}

func TestSaveUnencodableValue(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	m, _ := testSnapshot()
	type opaque struct{ ch chan int }
	err := s.Save(m, []Record{{Key: "k", Value: opaque{}}})
	if !errors.Is(err, spill.ErrNoCodec) {
		t.Fatalf("Save = %v, want spill.ErrNoCodec", err)
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		t.Fatalf("Save left %s behind", e.Name())
	}
}

// TestSaveWriteFailureIsNotUnencodable: a checkpoint over a megabyte flushes
// sections to disk from inside Record. A disk error there is a failed save
// of its own — not spill.ErrNoCodec, which names the caller's data.
func TestSaveWriteFailureIsNotUnencodable(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	m, _ := testSnapshot()
	var recs []Record
	for i := 0; i < 40; i++ {
		recs = append(recs, Record{Key: "k", Value: strings.Repeat("v", 100<<10)})
	}
	for _, op := range []string{"write", "sync"} {
		boom := errors.New("injected: no space left on device")
		frame.SetFailHook(func(o, _ string) error {
			if o == op {
				return boom
			}
			return nil
		})
		err := s.Save(m, recs)
		frame.SetFailHook(nil)
		if !errors.Is(err, boom) || errors.Is(err, spill.ErrNoCodec) {
			t.Fatalf("%s failure: Save = %v, want the injected error and not spill.ErrNoCodec", op, err)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 0 {
			t.Fatalf("%s failure: Save left %s behind", op, entries[0].Name())
		}
	}
	if err := s.Save(m, recs); err != nil {
		t.Fatal(err)
	}
	if snap, status := s.Load(m.Stage, m.Job, m.Fingerprint); status != Hit || len(snap.Records) != len(recs) {
		t.Fatalf("Load after the failures: %v", status)
	}
}

// TestRecordLargerThanASection: the index snapshot stores all base tokens
// as one record, so a record has no size limit even though a section has —
// its bytes run across sections.
func TestRecordLargerThanASection(t *testing.T) {
	if testing.Short() {
		t.Skip("writes and reads back a record of over 64 MiB")
	}
	s := mustOpen(t, t.TempDir())
	m, _ := testSnapshot()
	big := make([]uint32, 65<<20/4)
	for i := 0; i < len(big); i += 61 {
		big[i] = uint32(i) * 2654435761
	}
	recs := []Record{{Key: "before", Value: "x"}, {Key: "rectok", Value: big}, {Key: "after", Value: 7}}
	if err := s.Save(m, recs); err != nil {
		t.Fatal(err)
	}
	snap, status := s.Load(m.Stage, m.Job, m.Fingerprint)
	if status != Hit {
		t.Fatalf("Load status = %v, want hit", status)
	}
	got, _ := snap.Records[1].Value.([]uint32)
	if len(snap.Records) != 3 || !slices.Equal(got, big) {
		t.Fatal("the long record differs")
	}
	snap.Records[1], recs[1] = Record{}, Record{}
	if !reflect.DeepEqual(snap.Records, recs) {
		t.Fatalf("records around it = %#v", snap.Records)
	}
}

func TestFileNameSanitised(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	name := filepath.Base(s.fileName(1, "weird/job name:*"))
	if strings.ContainsAny(name, "/: *") {
		t.Fatalf("fileName %q contains unsafe characters", name)
	}
}

func TestFingerprint(t *testing.T) {
	base := func() *Fingerprint {
		f := NewFingerprint()
		f.Str("pipe")
		f.I64(3)
		f.KV("key", []uint32{1, 2})
		return f
	}
	a, b := base(), base()
	if a.Hex() == "" || a.Hex() != b.Hex() {
		t.Fatalf("identical fingerprints differ: %q vs %q", a.Hex(), b.Hex())
	}
	c := base()
	c.KV("key", []uint32{1, 3})
	if c.Hex() == a.Hex() {
		t.Fatal("fingerprint ignored an input value change")
	}
	// Length framing: ("ab","c") must not collide with ("a","bc").
	x, y := NewFingerprint(), NewFingerprint()
	x.Str("ab")
	x.Str("c")
	y.Str("a")
	y.Str("bc")
	if x.Hex() == y.Hex() {
		t.Fatal("fingerprint fields collide by concatenation")
	}
	// An unencodable value poisons the fingerprint.
	z := NewFingerprint()
	z.KV("k", struct{ ch chan int }{})
	if !errors.Is(z.Err(), spill.ErrNoCodec) || z.Hex() != "" {
		t.Fatalf("unencodable value: Err=%v Hex=%q, want spill.ErrNoCodec and empty", z.Err(), z.Hex())
	}
}
