package spill

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func testSize(key string, v any) int64 { return int64(len(key) + 16) }

// drainAll replays every partition into (key, value) slices.
func drainAll(t *testing.T, b *Buffer, parts int) ([][]string, [][]any) {
	t.Helper()
	keys := make([][]string, parts)
	vals := make([][]any, parts)
	for p := 0; p < parts; p++ {
		if _, err := b.Drain(p, func(k string, v any, _ int64) {
			keys[p] = append(keys[p], k)
			vals[p] = append(vals[p], v)
		}); err != nil {
			t.Fatalf("drain %d: %v", p, err)
		}
	}
	return keys, vals
}

// drainTotals sums the records and accounted bytes every partition drains:
// what the engine's reduce tasks count as they fetch.
func drainTotals(t *testing.T, b *Buffer, parts int) (records, bytes int64) {
	t.Helper()
	for p := 0; p < parts; p++ {
		if _, err := b.Drain(p, func(_ string, _ any, sz int64) {
			records++
			bytes += sz
		}); err != nil {
			t.Fatalf("drain %d: %v", p, err)
		}
	}
	return records, bytes
}

// groupByKey normalises a drain sequence the way the engine's reduce phase
// does: values grouped per key, keys sorted. Per-key value order must be
// preserved exactly.
func groupByKey(keys []string, vals []any) (sorted []string, grouped map[string][]any) {
	grouped = make(map[string][]any)
	for i, k := range keys {
		if _, ok := grouped[k]; !ok {
			sorted = append(sorted, k)
		}
		grouped[k] = append(grouped[k], vals[i])
	}
	sort.Strings(sorted)
	return sorted, grouped
}

func TestCodecRoundTripBuiltins(t *testing.T) {
	cases := []any{
		nil, true, false,
		int(-7), int8(-8), int16(-900), int32(1 << 20), int64(-1 << 40),
		uint(7), uint8(200), uint16(60000), uint32(1 << 30), uint64(1 << 50),
		float32(3.5), float64(-2.25),
		"", "hello κόσμε", []byte{0, 1, 2, 255},
		[]uint32{}, []uint32{1, 2, 1 << 31}, []int32{-1, 0, 1},
		[]int{-5, 5}, []string{"a", "", "bc"},
	}
	for _, v := range cases {
		buf, err := AppendEncoded(nil, v)
		if err != nil {
			t.Errorf("encode %T: %v", v, err)
			continue
		}
		got, err := DecodeEncoded(buf)
		if err != nil {
			t.Errorf("decode %T: %v", v, err)
			continue
		}
		if !reflect.DeepEqual(got, v) {
			// An encoded empty slice decodes to a non-nil empty slice.
			if rv := reflect.ValueOf(v); v != nil && rv.Kind() == reflect.Slice && rv.Len() == 0 &&
				reflect.ValueOf(got).Len() == 0 && reflect.TypeOf(got) == reflect.TypeOf(v) {
				continue
			}
			t.Errorf("round trip %T: got %#v want %#v", v, got, v)
		}
		if reflect.TypeOf(got) != reflect.TypeOf(v) {
			t.Errorf("round trip %T: decoded concrete type %T", v, got)
		}
	}
}

type unregistered struct{ n int }

// TestCodecSliceCountOverflow: a slice count of 2^62 or more, whose byte
// size wraps to a small number, is a decode error and not a makeslice panic.
func TestCodecSliceCountOverflow(t *testing.T) {
	for _, tag := range []byte{tagU32Slice, tagI32Slice} {
		for _, n := range []uint64{1 << 62, 1<<62 + 1, 1 << 63, 1<<64 - 1} {
			frame := append(binary.AppendUvarint([]byte{tag}, n), 1, 2, 3, 4)
			if v, err := DecodeEncoded(frame); err == nil {
				t.Fatalf("tag %d count %d decoded to %v", tag, n, v)
			}
		}
	}
}

func TestCodecUnregisteredType(t *testing.T) {
	if _, err := AppendEncoded(nil, unregistered{1}); !errors.Is(err, ErrNoCodec) {
		t.Fatalf("encode of unregistered type: %v, want ErrNoCodec", err)
	}
}

type registered struct{ n int32 }

// tagTest is a tag no package registers.
const tagTest = 250

func init() {
	Register(tagTest, Codec[registered]{
		Append: func(buf []byte, v registered) []byte { return AppendI32s(buf, []int32{v.n}) },
		Read: func(d *Dec) registered {
			xs := d.I32s()
			if len(xs) != 1 {
				d.fail()
				return registered{}
			}
			return registered{n: xs[0]}
		},
		Size: func(registered) int { return 4 },
	})
}

func TestCodecRegisteredType(t *testing.T) {
	v := registered{n: -42}
	buf, err := AppendEncoded(nil, v)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEncoded(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != v {
		t.Fatalf("got %#v want %#v", got, v)
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	codec := Codec[registered]{
		Append: func(buf []byte, _ registered) []byte { return buf },
		Read:   func(*Dec) registered { return registered{} },
		Size:   func(registered) int { return 0 },
	}
	other := Codec[struct{ x bool }]{
		Append: func(buf []byte, _ struct{ x bool }) []byte { return buf },
		Read:   func(*Dec) struct{ x bool } { return struct{ x bool }{} },
		Size:   func(struct{ x bool }) int { return 0 },
	}
	unsized := other
	unsized.Size = nil
	mustPanic("builtin tag", func() { Register(tagInt32, codec) })
	mustPanic("bare tag", func() { Register(tagTrue, other) })
	mustPanic("duplicate tag", func() { Register(tagTest, other) })
	mustPanic("duplicate type", func() { Register(253, codec) })
	mustPanic("nil codec", func() { Register(254, Codec[struct{ y bool }]{}) })
	mustPanic("nil Size", func() { Register(254, unsized) })
	if kindsByTag[253] != nil || kindsByTag[254] != nil || kindsByType[reflect.TypeFor[struct{ x bool }]()] != nil {
		t.Error("a refused registration left an entry behind")
	}
}

func TestBufferUnboundedNeverSpills(t *testing.T) {
	b := NewBuffer(Config{Parts: 2, Size: testSize, Dir: t.TempDir()})
	defer b.Close()
	for i := 0; i < 1000; i++ {
		if err := b.Add(i%2, fmt.Sprintf("k%03d", i%50), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := b.Stats()
	if st.Runs != 0 || st.SpilledBytes != 0 {
		t.Fatalf("unbounded buffer spilled: %+v", st)
	}
	if st.PeakBytes == 0 {
		t.Fatal("peak not tracked")
	}
	keys, _ := drainAll(t, b, 2)
	if len(keys[0])+len(keys[1]) != 1000 {
		t.Fatalf("drained %d records, want 1000", len(keys[0])+len(keys[1]))
	}
}

// TestBufferSpillEquivalence checks the tentpole invariant: after reduce-
// style grouping, a budgeted buffer's drain is identical to an unbounded
// one's — same keys, same per-key value sequences — while actually
// spilling multiple runs.
func TestBufferSpillEquivalence(t *testing.T) {
	const parts = 3
	rng := rand.New(rand.NewSource(42))
	build := func(budget int64, dir string) *Buffer {
		r := rand.New(rand.NewSource(7))
		b := NewBuffer(Config{Parts: parts, Budget: budget, Size: testSize, Dir: dir})
		for i := 0; i < 2000; i++ {
			k := fmt.Sprintf("key-%03d", r.Intn(120))
			if err := b.Add(rng.Intn(parts), k, int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		return b
	}
	// Identical partition routing for both buffers.
	rng = rand.New(rand.NewSource(42))
	ref := build(0, t.TempDir())
	defer ref.Close()
	rng = rand.New(rand.NewSource(42))
	dir := t.TempDir()
	spilled := build(512, dir)
	defer spilled.Close()

	if st := spilled.Stats(); st.Runs < 2 {
		t.Fatalf("budget 512 produced only %d runs", st.Runs)
	}
	refK, refV := drainAll(t, ref, parts)
	gotK, gotV := drainAll(t, spilled, parts)
	for p := 0; p < parts; p++ {
		wantKeys, wantGroups := groupByKey(refK[p], refV[p])
		gotKeys, gotGroups := groupByKey(gotK[p], gotV[p])
		if !reflect.DeepEqual(wantKeys, gotKeys) {
			t.Fatalf("partition %d key sets differ", p)
		}
		if !reflect.DeepEqual(wantGroups, gotGroups) {
			t.Fatalf("partition %d grouped values differ", p)
		}
	}
	// Records/bytes accounting must match the unbounded buffer's too.
	rr, rb := drainTotals(t, ref, parts)
	sr, sb := drainTotals(t, spilled, parts)
	if rr != sr || rb != sb {
		t.Fatalf("totals differ: unbounded (%d, %d) vs spilled (%d, %d)", rr, rb, sr, sb)
	}
}

// TestBufferFoldEquivalence checks merge-time re-folding: a folding buffer
// that spilled mid-stream still drains at most one record per key with the
// same folded value as the in-memory fast path.
func TestBufferFoldEquivalence(t *testing.T) {
	fold := func(acc, v any) any { return acc.(int64) + v.(int64) }
	build := func(budget int64, dir string) *Buffer {
		b := NewBuffer(Config{Parts: 2, Budget: budget, Size: testSize, Dir: dir, Fold: fold})
		r := rand.New(rand.NewSource(3))
		for i := 0; i < 1500; i++ {
			k := fmt.Sprintf("w%02d", r.Intn(40))
			if err := b.Add(len(k+fmt.Sprint(i))%2, k, int64(1)); err != nil {
				t.Fatal(err)
			}
		}
		return b
	}
	ref := build(0, t.TempDir())
	defer ref.Close()
	spilled := build(256, t.TempDir())
	defer spilled.Close()
	if st := spilled.Stats(); st.Runs < 2 {
		t.Fatalf("only %d runs", st.Runs)
	}
	for p := 0; p < 2; p++ {
		want := map[string]int64{}
		if _, err := ref.Drain(p, func(k string, v any, _ int64) { want[k] = v.(int64) }); err != nil {
			t.Fatal(err)
		}
		got := map[string]int64{}
		if _, err := spilled.Drain(p, func(k string, v any, _ int64) {
			if _, dup := got[k]; dup {
				t.Fatalf("partition %d key %q drained twice (merge did not re-fold)", p, k)
			}
			got[k] = v.(int64)
		}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("partition %d folded values differ:\nwant %v\ngot  %v", p, want, got)
		}
	}
	// The merge's re-folded records account like the in-memory ones.
	rr, rb := drainTotals(t, ref, 2)
	sr, sb := drainTotals(t, spilled, 2)
	if rr != sr || rb != sb {
		t.Fatalf("totals differ: (%d,%d) vs (%d,%d)", rr, rb, sr, sb)
	}
}

func TestBufferCloseRemovesFiles(t *testing.T) {
	dir := t.TempDir()
	b := NewBuffer(Config{Parts: 2, Budget: 64, Size: testSize, Dir: dir})
	for i := 0; i < 200; i++ {
		if err := b.Add(i%2, fmt.Sprintf("k%03d", i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := b.Stats(); st.Runs == 0 {
		t.Fatal("no spill happened")
	}
	if ents, _ := os.ReadDir(dir); len(ents) == 0 {
		t.Fatal("expected spill dir while open")
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("Close left files: %v", ents)
	}
	// A closed buffer refuses further spills instead of writing to a
	// removed directory.
	var addErr error
	for i := 0; i < 200 && addErr == nil; i++ {
		addErr = b.Add(0, "k", int64(i))
	}
	if addErr == nil {
		t.Fatal("Add kept spilling after Close")
	}
}

func TestBufferReleaseAllClosesAndRemoves(t *testing.T) {
	dir := t.TempDir()
	b := NewBuffer(Config{Parts: 3, Budget: 64, Size: testSize, Dir: dir})
	for i := 0; i < 300; i++ {
		if err := b.Add(i%3, fmt.Sprintf("k%03d", i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := b.Stats(); st.Runs == 0 {
		t.Fatal("no spill happened")
	}
	for p := 0; p < 3; p++ {
		b.Release(p)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("Release of all partitions left files: %v", ents)
	}
}

func TestBufferDrainIsRepeatable(t *testing.T) {
	b := NewBuffer(Config{Parts: 1, Budget: 64, Size: testSize, Dir: t.TempDir()})
	defer b.Close()
	for i := 0; i < 150; i++ {
		if err := b.Add(0, fmt.Sprintf("k%02d", i%17), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	k1, v1 := drainAll(t, b, 1)
	k2, v2 := drainAll(t, b, 1)
	if !reflect.DeepEqual(k1, k2) || !reflect.DeepEqual(v1, v2) {
		t.Fatal("second drain differs from first")
	}
}

func TestBufferMergeWaysStat(t *testing.T) {
	b := NewBuffer(Config{Parts: 1, Budget: 64, Size: testSize, Dir: t.TempDir()})
	defer b.Close()
	for i := 0; i < 400; i++ {
		if err := b.Add(0, fmt.Sprintf("k%03d", i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	runs := b.Stats().Runs
	if runs < 2 {
		t.Fatalf("want >= 2 runs, got %d", runs)
	}
	ways, err := b.Drain(0, func(string, any, int64) {})
	if err != nil {
		t.Fatal(err)
	}
	// runs + the in-memory tail (if non-empty).
	if int64(ways) < runs {
		t.Fatalf("merge ways %d < runs %d", ways, runs)
	}
}

func TestRunWriterEmptyPartitionsSkipped(t *testing.T) {
	b := NewBuffer(Config{Parts: 4, Budget: 64, Size: testSize, Dir: t.TempDir()})
	defer b.Close()
	// Only partition 2 gets data.
	for i := 0; i < 100; i++ {
		if err := b.Add(2, fmt.Sprintf("k%03d", i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []int{0, 1, 3} {
		n := 0
		ways, err := b.Drain(p, func(string, any, int64) { n++ })
		if err != nil {
			t.Fatal(err)
		}
		if n != 0 || ways != 0 {
			t.Fatalf("empty partition %d drained %d records, %d ways", p, n, ways)
		}
	}
	n := 0
	if _, err := b.Drain(2, func(string, any, int64) { n++ }); err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("partition 2 drained %d records, want 100", n)
	}
}

// TestSpillDirNamePattern pins the on-disk layout other cleanup code greps
// for: however often it spills, a buffer holds one fsjoin-spill-* regular
// file directly in Dir, and Close removes it.
func TestSpillDirNamePattern(t *testing.T) {
	dir := t.TempDir()
	b := NewBuffer(Config{Parts: 1, Budget: 32, Size: testSize, Dir: dir})
	defer b.Close()
	for i := 0; i < 50; i++ {
		if err := b.Add(0, fmt.Sprintf("k%02d", i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if runs := b.Stats().Runs; runs < 2 {
		t.Fatalf("%d spills, want >= 2", runs)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || !ents[0].Type().IsRegular() || !strings.HasPrefix(ents[0].Name(), "fsjoin-spill-") {
		t.Fatalf("spill dir holds %v, want one fsjoin-spill-* regular file", ents)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("after Close the spill dir holds %v (err %v)", ents, err)
	}
}

// readSegs decodes segs of f onto Records as a fetch does, and returns the
// records decoded, up to an error included.
func readSegs(f *os.File, segs ...segment) (keys []string, vals []any, err error) {
	var recs Records
	var fe Fetcher
	fe.win.fit(segs)
	err = (&Buffer{cfg: Config{Size: testSize}, f: f}).decode(segs, &recs, &fe)
	recs.Each(func(k string, v any, _ int64) bool {
		keys, vals = append(keys, k), append(vals, v)
		return true
	})
	return keys, vals, err
}

// TestRunCursorWindow drives the fetch's sliding window over segments a
// spill wrote: a segment several windows long (records straddle every
// refill), one record larger than twice the initial window (the doubling
// path), a one-record segment (the window is no larger than it), a segment
// cut mid-record, and a complete frame whose value is short inside — which
// must surface as a decode error, not be taken for a record that needs
// more bytes.
func TestRunCursorWindow(t *testing.T) {
	b := NewBuffer(Config{Parts: 2, Size: testSize, Dir: t.TempDir()})
	defer b.Close()
	var keys []string
	var vals []any
	for i := 0; i < 6000; i++ { // ~30 B a record: about five 32 KiB windows
		keys, vals = append(keys, fmt.Sprintf("key%05d", i)), append(vals, fmt.Sprintf("value-%d", i))
		if i == 3000 {
			vals[i] = string(make([]byte, 100<<10))
		}
		if err := b.Add(0, keys[i], vals[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Add(1, "lone", int64(7)); err != nil {
		t.Fatal(err)
	}
	if err := b.spill(); err != nil {
		t.Fatal(err)
	}
	seg, lone := b.segs[0][0], b.segs[1][0]
	if size := seg.end - seg.off; size < 5*(32<<10) {
		t.Fatalf("segment is %d bytes, want several windows", size)
	}
	gotK, gotV, err := readSegs(b.f, seg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotK, keys) || !reflect.DeepEqual(gotV, vals) {
		t.Fatalf("read back %d records, want %d identical ones", len(gotK), len(keys))
	}

	// The one-record segment is read through a window of its own size, and
	// ends cleanly after its record.
	var win window
	win.fit([]segment{lone})
	if size := lone.end - lone.off; int64(cap(win.buf)) > size {
		t.Fatalf("one-record segment of %d bytes got a %d-byte window", size, cap(win.buf))
	}
	if k, v, err := readSegs(b.f, lone); err != nil || !reflect.DeepEqual(k, []string{"lone"}) || !reflect.DeepEqual(v, []any{int64(7)}) {
		t.Fatalf("one-record segment: (%q, %v, %v), want the one record and a clean end", k, v, err)
	}

	// Cut the segment inside its last record: every record before it still
	// decodes, then the decode reports the truncation.
	seg.end -= 3
	gotK, _, err = readSegs(b.f, seg)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated segment: err = %v, want io.ErrUnexpectedEOF", err)
	}
	if len(gotK) != len(keys)-1 {
		t.Fatalf("truncated segment yielded %d records, want %d", len(gotK), len(keys)-1)
	}

	// A whole frame holding a []uint32 that claims five words and carries
	// one, followed by a good record the decode must not go on to read.
	bad := append([]byte{1, 'k', 6, tagU32Slice, 5}, 0, 0, 0, 0)
	bad, err = AppendRecord(bad, "after", int64(1))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.CreateTemp(t.TempDir(), "run")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(bad); err != nil {
		t.Fatal(err)
	}
	gotK, _, err = readSegs(f, segment{end: int64(len(bad)), records: 2})
	if err == nil || errors.Is(err, io.ErrUnexpectedEOF) || !errors.Is(err, errTruncated) || len(gotK) != 0 {
		t.Fatalf("corrupt value: %d records, err = %v; want the wrapped decode error at once", len(gotK), err)
	}
}
