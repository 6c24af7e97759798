package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fsjoin/internal/spill"
)

var testHeader = []byte("test-owner fp=abc")

// publishSections publishes name with the given payload sections.
func publishSections(dir, name string, payloads ...[]byte) error {
	return Publish(dir, name, testHeader, func(w *Writer) error {
		for _, p := range payloads {
			if err := w.Section(p); err != nil {
				return err
			}
		}
		return nil
	})
}

// payloadsOf reads a closed file back as its payload list.
func payloadsOf(t *testing.T, path string) [][]byte {
	t.Helper()
	f, err := Read(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	if !bytes.Equal(f.Header, testHeader) {
		t.Fatalf("header %q, want %q", f.Header, testHeader)
	}
	var out [][]byte
	for i := range f.Sections {
		out = append(out, f.Payload(i))
	}
	return out
}

func fileNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		out = append(out, e.Name())
	}
	return out
}

func TestPublishReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := [][]byte{[]byte("one"), bytes.Repeat([]byte{7}, 200_000), []byte("3")}
	if err := publishSections(dir, "f", want...); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "f")
	if got := payloadsOf(t, path); !reflect.DeepEqual(got, want) {
		t.Fatal("payloads differ")
	}
	if got := fileNames(t, dir); !reflect.DeepEqual(got, []string{"f"}) {
		t.Fatalf("directory holds %v", got)
	}
}

func TestRecordsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	type rec struct {
		k string
		v any
	}
	var want []rec
	for i := 0; i < 3000; i++ {
		want = append(want, rec{fmt.Sprintf("key-%05d", i), strings.Repeat("v", 1+i%900)})
	}
	var firstPart int
	err := Publish(dir, "r", testHeader, func(w *Writer) error {
		for i, r := range want {
			if i == 10 {
				// flush ends a run of records: what follows starts a new section.
				if err := w.flush(); err != nil {
					return err
				}
				firstPart = w.n - 1
			}
			if err := w.Record(r.k, r.v); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if firstPart != 1 {
		t.Fatalf("10 small records took %d sections", firstPart)
	}
	f, err := Read(filepath.Join(dir, "r"))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Sections) < 3 {
		t.Fatalf("%d sections: records were not chunked", len(f.Sections))
	}
	for i, s := range f.Sections {
		if s.Len > chunkBytes+2000 {
			t.Fatalf("section %d is %d bytes", i, s.Len)
		}
	}
	var got []rec
	collect := func(k string, v any) { got = append(got, rec{k, v}) }
	if n, err := f.Records(collect); err != nil || n != int64(len(want)) || !reflect.DeepEqual(got, want) {
		t.Fatalf("Records: n=%d err=%v", n, err)
	}
	for _, bad := range [][]byte{{recLast, 1, 'k', 9}, {2, 0}} {
		if err := publishSections(dir, "bad", bad); err != nil {
			t.Fatal(err)
		}
		f, err := Read(filepath.Join(dir, "bad"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Records(collect); err == nil {
			t.Fatalf("Records accepted %v", bad)
		}
		os.Remove(filepath.Join(dir, "bad"))
	}
	type opaque struct{ ch chan int }
	err = Publish(dir, "bad", testHeader, func(w *Writer) error { return w.Record("k", opaque{}) })
	if !errors.Is(err, spill.ErrNoCodec) {
		t.Fatalf("Publish of an unencodable record: %v, want spill.ErrNoCodec", err)
	}
	if got := fileNames(t, dir); !reflect.DeepEqual(got, []string{"r"}) {
		t.Fatalf("failed publish left %v", got)
	}
}

// TestRecordsSpanSections writes records longer than a section may be —
// with the limit lowered, so every cut position is cheap to reach: records
// that end exactly on a cut, one byte either side of it, and several
// sections long — and reads back what was written.
func TestRecordsSpanSections(t *testing.T) {
	dir := t.TempDir()
	const limit = 256
	type rec struct {
		k string
		v any
	}
	for size := 1; size < 4*limit; size++ {
		want := []rec{{"small", "x"}, {"big", strings.Repeat("b", size)}, {"after", []uint32{1, 2, 3}}}
		var parts []int // sections per flush
		err := Publish(dir, "f", testHeader, func(w *Writer) error {
			w.limit = limit
			for _, r := range want {
				before := w.n
				if err := w.Record(r.k, r.v); err != nil {
					return err
				}
				if err := w.flush(); err != nil {
					return err
				}
				parts = append(parts, w.n-before)
			}
			return w.Record("tail", "t") // Publish flushes what is pending
		})
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		f, err := Read(filepath.Join(dir, "f"))
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		var got []rec
		collect := func(k string, v any) { got = append(got, rec{k, v}) }
		// Each flushed run of sections is a record stream of its own.
		stream := func(secs []Section) *File { return &File{Sections: secs, data: f.data} }
		next := 0
		for _, n := range append(parts, 1) {
			for _, s := range f.Sections[next : next+n] {
				if s.Len > limit {
					t.Fatalf("size %d: section of %d bytes", size, s.Len)
				}
			}
			if _, err := stream(f.Sections[next : next+n]).Records(collect); err != nil {
				t.Fatalf("size %d: %v", size, err)
			}
			next += n
		}
		if next != len(f.Sections) || !reflect.DeepEqual(got, append(want, rec{"tail", "t"})) {
			t.Fatalf("size %d: %d sections read of %d, records %v", size, next, len(f.Sections), got)
		}
		got = nil
		if n, err := f.Records(collect); err != nil || n != 4 || !reflect.DeepEqual(got, append(want, rec{"tail", "t"})) {
			t.Fatalf("size %d: Records n=%d err=%v", size, n, err)
		}
		if size > limit && parts[1] < 2 {
			t.Fatalf("size %d: the long record took %d sections", size, parts[1])
		}
		// A stream that loses its last section stops inside a record.
		if parts[1] > 1 {
			n, err := stream(f.Sections[1:parts[1]]).Records(func(string, any) {})
			if n != 0 || err == nil {
				t.Fatalf("size %d: a cut stream read as %d records, err=%v", size, n, err)
			}
		}
	}
}

func TestSectionSizeGuard(t *testing.T) {
	dir := t.TempDir()
	if err := publishSections(dir, "f", nil); err == nil {
		t.Fatal("empty section accepted")
	}
	if err := publishSections(dir, "f", make([]byte, maxSection+1)); err == nil {
		t.Fatal("oversized section accepted")
	}
	if err := Publish(dir, "f", nil, nil); err == nil {
		t.Fatal("empty header accepted")
	}
	if got := fileNames(t, dir); len(got) != 0 {
		t.Fatalf("refused publishes left %v", got)
	}
}

// TestEveryByteValidated flips each byte of a closed file and cuts and
// extends it: no damaged image parses.
func TestEveryByteValidated(t *testing.T) {
	dir := t.TempDir()
	if err := publishSections(dir, "f", []byte("alpha"), []byte("beta-beta")); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(filepath.Join(dir, "f"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(orig); err != nil {
		t.Fatal(err)
	}
	for pos := range orig {
		for _, mask := range []byte{0x01, 0x80, 0xff} {
			mut := append([]byte(nil), orig...)
			mut[pos] ^= mask
			if _, err := Parse(mut); err == nil {
				t.Fatalf("byte %d ^ %#x: damaged image parsed", pos, mask)
			}
		}
	}
	for n := 0; n < len(orig); n++ {
		if _, err := Parse(orig[:n]); err == nil {
			t.Fatalf("image cut to %d bytes parsed", n)
		}
	}
	if _, err := Parse(append(append([]byte(nil), orig...), 0)); err == nil {
		t.Fatal("image with a trailing byte parsed")
	}
	// A log (no end marker) is not a closed file.
	if _, err := Parse(orig[:len(orig)-8]); err == nil {
		t.Fatal("image without its end marker parsed")
	}
}

// TestHugeLengthsRefused: length fields at and past every boundary are
// corruption, compared without overflow, and never size an allocation.
func TestHugeLengthsRefused(t *testing.T) {
	for _, n := range []uint32{0, maxSection + 1, 1 << 31, 0xFFFFFFFE, endMark} {
		img := []byte(magic)
		img = binary.LittleEndian.AppendUint32(img, n)
		img = binary.LittleEndian.AppendUint32(img, 0)
		img = append(img, "payload"...)
		if _, err := Parse(img); err == nil {
			t.Fatalf("length %#x parsed", n)
		}
		path := filepath.Join(t.TempDir(), "log")
		if err := os.WriteFile(path, img, 0o600); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReplayLog(path, testHeader, nil); err == nil {
			t.Fatalf("length %#x replayed", n)
		}
	}
}

type killed struct{ point string }

// dieAt arms a panic at the (after+1)-th crossing of point and runs fn,
// reporting whether the kill fired.
func dieAt(t *testing.T, point string, after int, fn func()) (fired bool) {
	t.Helper()
	hits := 0
	SetKillHook(func(p string) {
		if p == point {
			if hits++; hits > after {
				panic(killed{p})
			}
		}
	})
	defer SetKillHook(nil)
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killed); !ok {
				panic(r)
			}
			fired = true
		}
	}()
	fn()
	return false
}

// TestKillAtEveryBoundary dies at every Publish and Log.Append boundary
// and reopens: a closed file is the old version or the whole new one, a log
// replays a prefix of what was appended, at least what was synced before
// the append that died, and the repair is stable.
func TestKillAtEveryBoundary(t *testing.T) {
	oldV, newV := [][]byte{[]byte("old")}, [][]byte{[]byte("new"), []byte("version")}
	for _, tc := range []struct {
		point   string
		wantNew bool
	}{
		{"save.start", false},
		{"save.synced", false},
		{"save.renamed", true},
	} {
		t.Run(tc.point, func(t *testing.T) {
			dir := t.TempDir()
			if err := publishSections(dir, "f", oldV...); err != nil {
				t.Fatal(err)
			}
			if !dieAt(t, tc.point, 0, func() { publishSections(dir, "f", newV...) }) {
				t.Fatal("kill point never fired")
			}
			want := oldV
			if tc.wantNew {
				want = newV
			}
			if got := payloadsOf(t, filepath.Join(dir, "f")); !reflect.DeepEqual(got, want) {
				t.Fatalf("reopened file holds %q, want %q", got, want)
			}
			if err := SweepTemps(dir, false); err != nil {
				t.Fatal(err)
			}
			if got := fileNames(t, dir); !reflect.DeepEqual(got, []string{"f"}) {
				t.Fatalf("after the sweep the directory holds %v", got)
			}
		})
	}

	ops := [][]byte{[]byte("op-1"), []byte("op-two"), []byte("op-3-longer")}
	for _, point := range []string{"wal.append.pre", "wal.append.mid"} {
		for after := range ops {
			t.Run(fmt.Sprintf("%s/%d", point, after), func(t *testing.T) {
				dir := t.TempDir()
				l, err := CreateLog(dir, "log", testHeader)
				if err != nil {
					t.Fatal(err)
				}
				fired := dieAt(t, point, after, func() {
					for _, op := range ops {
						if _, err := l.Append(op); err != nil {
							t.Error(err)
						}
					}
				})
				l.Close()
				if !fired {
					t.Fatal("kill point never fired")
				}
				replay := func() (got [][]byte, truncated bool) {
					_, truncated, err := ReplayLog(l.path, testHeader, func(p []byte) error {
						got = append(got, append([]byte(nil), p...))
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
					return got, truncated
				}
				got, truncated := replay()
				if want := append([][]byte(nil), ops[:after]...); !reflect.DeepEqual(got, want) {
					t.Fatalf("replayed %q, want the %d appends that completed", got, after)
				}
				if want := point == "wal.append.mid"; truncated != want {
					t.Fatalf("truncated=%v, want %v", truncated, want)
				}
				if again, truncated := replay(); truncated || !reflect.DeepEqual(again, got) {
					t.Fatal("second replay differs: the first did not repair the tail")
				}
			})
		}
	}
}

// TestInjectedFailures: a failing write or fsync fails the publish, leaves
// no temp file and leaves the published file as it was; a publish syncs
// the file once.
func TestInjectedFailures(t *testing.T) {
	boom := errors.New("disk on fire")
	for _, op := range []string{"write", "sync"} {
		dir := t.TempDir()
		if err := publishSections(dir, "f", []byte("old")); err != nil {
			t.Fatal(err)
		}
		SetFailHook(func(o, name string) error {
			if o == op && name == "f" {
				return boom
			}
			return nil
		})
		err := publishSections(dir, "f", []byte("new"))
		_, lerr := CreateLog(dir, "f", testHeader)
		SetFailHook(nil)
		if !errors.Is(err, boom) || !errors.Is(lerr, boom) {
			t.Fatalf("%s failure: Publish=%v CreateLog=%v", op, err, lerr)
		}
		if got := payloadsOf(t, filepath.Join(dir, "f")); !reflect.DeepEqual(got, [][]byte{[]byte("old")}) {
			t.Fatalf("%s failure replaced the file: %q", op, got)
		}
		if got := fileNames(t, dir); !reflect.DeepEqual(got, []string{"f"}) {
			t.Fatalf("%s failure left %v", op, got)
		}
	}
	syncs := 0
	SetFailHook(func(op, _ string) error {
		if op == "sync" {
			syncs++
		}
		return nil
	})
	defer SetFailHook(nil)
	if err := publishSections(t.TempDir(), "f", []byte("x")); err != nil || syncs != 1 {
		t.Fatalf("publish: err=%v, %d syncs", err, syncs)
	}
}

func TestLogReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := CreateLog(dir, "log", testHeader)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int64
	for i := 0; i < 6; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("entry-%d", i))); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, l.Size())
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	raw, err := os.ReadFile(l.path)
	if err != nil || int64(len(raw)) != ends[5] {
		t.Fatalf("file is %d bytes, Size says %d (%v)", len(raw), ends[5], err)
	}
	count := func(data []byte, refuseAt int64) (int64, bool) {
		t.Helper()
		path := filepath.Join(t.TempDir(), "log")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		var seen int64
		n, truncated, err := ReplayLog(path, testHeader, func([]byte) error {
			if seen == refuseAt {
				return errors.New("refused")
			}
			seen++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if fi, _ := os.Stat(path); truncated != (fi.Size() < int64(len(data))) {
			t.Fatalf("truncated=%v but file went %d -> %d bytes", truncated, len(data), fi.Size())
		}
		return n, truncated
	}
	if n, cut := count(raw, -1); n != 6 || cut {
		t.Fatalf("clean log: %d sections, truncated=%v", n, cut)
	}
	if n, cut := count(raw[:len(raw)-3], -1); n != 5 || !cut {
		t.Fatalf("torn tail: %d sections, truncated=%v", n, cut)
	}
	flipped := append([]byte(nil), raw...)
	flipped[(ends[2]+ends[3])/2] ^= 0x20
	if n, cut := count(flipped, -1); n != 3 || !cut {
		t.Fatalf("mid-file flip: %d sections, truncated=%v", n, cut)
	}
	if n, cut := count(raw, 4); n != 4 || !cut {
		t.Fatalf("refused section: %d sections, truncated=%v", n, cut)
	}
	// Zeros after a crash (a preallocated tail) are not empty sections.
	if n, cut := count(append(append([]byte(nil), raw...), make([]byte, 64)...), -1); n != 6 || !cut {
		t.Fatalf("zero tail: %d sections, truncated=%v", n, cut)
	}
	// Truncate erases an unacknowledged tail.
	if l, err = CreateLog(dir, "log2", testHeader); err != nil {
		t.Fatal(err)
	}
	l.Append([]byte("kept"))
	keep := l.Size()
	l.Append([]byte("erased"))
	if err := l.Truncate(keep); err != nil || l.Size() != keep {
		t.Fatalf("truncate: %v, size %d want %d", err, l.Size(), keep)
	}
	l.Close()
	if n, cut, err := ReplayLog(l.path, testHeader, func([]byte) error { return nil }); n != 1 || cut || err != nil {
		t.Fatalf("after Truncate: n=%d truncated=%v err=%v", n, cut, err)
	}

	// Another owner's header, a closed file and a missing file.
	if _, _, err := ReplayLog(l.path, []byte("someone else"), nil); err == nil {
		t.Fatal("foreign header replayed")
	}
	if fi, _ := os.Stat(l.path); fi.Size() != keep {
		t.Fatal("a rejected log was modified")
	}
	if err := publishSections(dir, "closed", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if n, cut, err := ReplayLog(filepath.Join(dir, "closed"), testHeader, func([]byte) error { return nil }); n != 1 || !cut || err != nil {
		t.Fatalf("closed file as a log: n=%d truncated=%v err=%v (the end marker is not a section)", n, cut, err)
	}
	if n, cut, err := ReplayLog(filepath.Join(dir, "absent"), testHeader, nil); n != 0 || cut || err != nil {
		t.Fatalf("missing log: n=%d truncated=%v err=%v", n, cut, err)
	}
}

func TestSweepTemps(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "job-1")
	if err := os.Mkdir(sub, 0o700); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{filepath.Join(dir, TempPrefix+"1"), filepath.Join(sub, TempPrefix+"2"), filepath.Join(sub, "stage-000-x.ckpt")} {
		if err := os.WriteFile(p, []byte("x"), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	// Not recursive: only dir itself — another writer may own what is below.
	if err := SweepTemps(dir, false); err != nil {
		t.Fatal(err)
	}
	if got := fileNames(t, dir); !reflect.DeepEqual(got, []string{"job-1"}) {
		t.Fatalf("root holds %v", got)
	}
	if got := fileNames(t, sub); !reflect.DeepEqual(got, []string{TempPrefix + "2", "stage-000-x.ckpt"}) {
		t.Fatalf("subdirectory holds %v after a flat sweep", got)
	}
	if err := SweepTemps(dir, true); err != nil {
		t.Fatal(err)
	}
	if got := fileNames(t, sub); !reflect.DeepEqual(got, []string{"stage-000-x.ckpt"}) {
		t.Fatalf("subdirectory holds %v", got)
	}
	for _, recursive := range []bool{false, true} {
		if err := SweepTemps(filepath.Join(dir, "absent"), recursive); err != nil {
			t.Fatalf("missing dir: %v", err)
		}
	}
}

// FuzzFrame feeds arbitrary bytes to both readers, and the sections of an
// accepted image to the record reader. None panics; a
// section either of them hands out lies inside the input, is within the
// size guard and matches its stored checksum; an image Parse accepts is
// exactly what Publish writes for its header and sections; and ReplayLog
// leaves a file that replays the same way with nothing left to cut.
func FuzzFrame(f *testing.F) {
	dir := f.TempDir()
	if err := publishSections(dir, "closed", []byte("alpha"), []byte("beta")); err != nil {
		f.Fatal(err)
	}
	l, err := CreateLog(dir, "log", testHeader)
	if err != nil {
		f.Fatal(err)
	}
	l.Append([]byte("op-1"))
	l.Append([]byte("op-2"))
	l.Close()
	err = Publish(dir, "records", testHeader, func(w *Writer) error {
		w.limit = 16 // the second record runs across sections
		w.Record("k", "v")
		return w.Record("long", strings.Repeat("r", 40))
	})
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range []string{"closed", "log", "records"} {
		img, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img)
		f.Add(img[:len(img)-3])
		flip := append([]byte(nil), img...)
		flip[len(flip)/2] ^= 0x40
		f.Add(flip)
	}
	f.Add([]byte(magic))
	f.Add([]byte("FSCKPT01 FSSHUF1\x00 FSWAL001: the formats before this one"))
	f.Add(binary.LittleEndian.AppendUint32([]byte(magic), 0xFFFFFFF0))
	f.Add([]byte{})

	checkSection := func(t *testing.T, data, payload []byte, s Section) {
		if s.Len < 1 || s.Len > maxSection || s.Off < 16 || s.Off+s.Len > int64(len(data)) {
			t.Fatalf("section %+v outside a %d-byte input or the size guard", s, len(data))
		}
		if !bytes.Equal(payload, data[s.Off:s.Off+s.Len]) || crc32.Checksum(payload, castagnoli) != s.Sum ||
			binary.LittleEndian.Uint32(data[s.Off-4:]) != s.Sum || int64(binary.LittleEndian.Uint32(data[s.Off-8:])) != s.Len {
			t.Fatalf("section %+v handed out without a matching checksum", s)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if file, err := Parse(data); err == nil {
			file.Records(func(string, any) {}) // the sections may or may not be records: an error, never a panic
			dir := t.TempDir()
			err := Publish(dir, "again", file.Header, func(w *Writer) error {
				for i, s := range file.Sections {
					checkSection(t, data, file.Payload(i), s)
					if err := w.Section(file.Payload(i)); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("accepted image cannot be written again: %v", err)
			}
			if again, _ := os.ReadFile(filepath.Join(dir, "again")); !bytes.Equal(again, data) {
				t.Fatal("accepted image is not what Publish writes for its content")
			}
		}

		path := filepath.Join(t.TempDir(), "log")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Skip()
		}
		var first [][]byte
		off := int64(len(magic) + 8 + len(testHeader)) // the sections visited are the ones that follow the header, in order
		n, _, err := ReplayLog(path, testHeader, func(p []byte) error {
			checkSection(t, data, p, Section{Off: off + 8, Len: int64(len(p)), Sum: crc32.Checksum(p, castagnoli)})
			off += 8 + int64(len(p))
			first = append(first, append([]byte(nil), p...))
			return nil
		})
		if err != nil {
			if after, _ := os.ReadFile(path); !bytes.Equal(after, data) {
				t.Fatal("a rejected log was modified")
			}
			return
		}
		if n != int64(len(first)) {
			t.Fatalf("replayed %d sections, visited %d", n, len(first))
		}
		var second [][]byte
		n2, truncated, err := ReplayLog(path, testHeader, func(p []byte) error {
			second = append(second, append([]byte(nil), p...))
			return nil
		})
		if err != nil || truncated || n2 != n || !reflect.DeepEqual(first, second) {
			t.Fatalf("replay after repair: n=%d (was %d) truncated=%v err=%v", n2, n, truncated, err)
		}
	})
}
