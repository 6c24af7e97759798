package spill

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
)

// FuzzValueCodec exercises DecodeEncoded on arbitrary frames: it must never
// panic, and any frame it accepts must re-encode and re-decode to the same
// value, of the same concrete type and accounted size (a full round trip for
// every reachable frame: a spilled record is accounted alike after decode).
func FuzzValueCodec(f *testing.F) {
	seeds := []any{
		nil, true, int64(-1 << 40), uint32(7), float64(3.25),
		"hello", []byte{1, 2}, []uint32{9, 8}, []int32{-3},
		[]int{4, -4}, []string{"a", "b"},
	}
	for _, v := range seeds {
		buf, err := AppendEncoded(nil, v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add([]byte{})
	f.Add([]byte{200})
	f.Add([]byte{tagU32Slice, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	// A count of 2^62: four times it is 0 in uint64 arithmetic.
	f.Add(binary.AppendUvarint([]byte{tagU32Slice}, 1<<62))
	f.Add(binary.AppendUvarint([]byte{tagI32Slice}, 1<<62))
	// Bytes after a complete payload: refused, not skipped.
	f.Add([]byte{TagCandidate, 0xff, 0xfe, 1, 2, 3})
	f.Add([]byte{TagOverlap, 0x06, 0x14, 0xe0, 0x12, 9, 9, 9})
	// A registered struct with a NaN in it.
	f.Add([]byte("60000000\xff\xff"))
	f.Fuzz(func(t *testing.T, frame []byte) {
		v, err := DecodeEncoded(frame)
		if err != nil {
			return
		}
		re, err := AppendEncoded(nil, v)
		if err != nil {
			t.Fatalf("decoded %T %v but cannot re-encode: %v", v, v, err)
		}
		v2, err := DecodeEncoded(re)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		// NaN payloads are preserved bit-for-bit but fail DeepEqual.
		same := reflect.DeepEqual(v, v2)
		switch x := v.(type) {
		case float32:
			y, ok := v2.(float32)
			same = ok && math.Float32bits(x) == math.Float32bits(y)
		case float64:
			y, ok := v2.(float64)
			same = ok && math.Float64bits(x) == math.Float64bits(y)
		default:
			// A NaN inside a registered struct: equal as printed.
			same = same || fmt.Sprintf("%#v", v) == fmt.Sprintf("%#v", v2)
		}
		if !same {
			t.Fatalf("unstable round trip: %#v -> %#v", v, v2)
		}
		if v != nil && reflect.TypeOf(v) != reflect.TypeOf(v2) {
			t.Fatalf("type drift: %T -> %T", v, v2)
		}
		var s Sizer
		if a, b := s.Size(v), s.Size(v2); a != b {
			t.Fatalf("size drift: %#v accounted at %d, its round trip at %d", v, a, b)
		}
	})
}

// FuzzBufferMerge feeds an arbitrary KV sequence (decoded from the fuzz
// input) through a tightly budgeted Buffer, each value type into a
// partition of its own, and checks each partition's spilled drain against
// the in-memory reference: same key set, identical per-key value order,
// key-sorted across groups — the exact contract the engine's reduce phase
// relies on (DESIGN.md §8).
func FuzzBufferMerge(f *testing.F) {
	f.Add([]byte("aa1bb2aa3cc4"), uint8(3), uint16(64))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 200, 201}, uint8(1), uint16(32))
	f.Add(bytes.Repeat([]byte("xyzw"), 64), uint8(2), uint16(48))
	// Every value an int64, held in its column, keys of two lengths that
	// share their leading bytes.
	f.Add(bytes.Repeat([]byte{3, 10, 17, 24, 31}, 40), uint8(4), uint16(100))
	f.Add(bytes.Repeat([]byte{3 | 0x80, 10, 17 | 0x80, 24, 31 | 0x80}, 40), uint8(4), uint16(100))
	// Partitions that take their first values after a spill or two.
	f.Add(append(bytes.Repeat([]byte{3, 10, 17}, 60), 0, 1, 2, 0x80, 0x81, 3), uint8(2), uint16(80))
	// "k00" beside "k00\x00": equal prefixes, lengths one apart.
	f.Add([]byte{0, 0x80, 7, 0x87, 0x80, 0}, uint8(1), uint16(16))
	f.Fuzz(func(t *testing.T, data []byte, nkeys uint8, budget uint16) {
		keys := int(nkeys%16) + 1
		// Decode the fuzz bytes into a KV stream: each byte contributes one
		// record. Its high bit appends a zero byte to the key, which then
		// has the prefix of the key without it; the byte modulo seven picks
		// the value's type, mostly int64, and the type the partition.
		type kv struct {
			part int
			key  string
			val  any
		}
		var recs []kv
		for i, c := range data {
			if len(recs) >= 512 {
				break
			}
			r := kv{part: 3, key: fmt.Sprintf("k%02d", int(c)%keys), val: int64(i)<<8 | int64(c)}
			if c&0x80 != 0 {
				r.key += "\x00"
			}
			switch c % 7 {
			case 0:
				r.part, r.val = 0, fmt.Sprint(r.val)
			case 1:
				r.part, r.val = 1, uint32(i)
			case 2:
				r.part, r.val = 2, []uint32{uint32(i), uint32(c)}
			}
			recs = append(recs, r)
		}
		bud := int64(budget%1024) + 16

		const parts = 4
		b := NewBuffer(Config{Parts: parts, Budget: bud, Size: testSize, Dir: t.TempDir()})
		defer b.Close()
		for _, r := range recs {
			if err := b.Add(r.part, r.key, r.val); err != nil {
				t.Fatal(err)
			}
		}
		for p := 0; p < parts; p++ {
			var gotKeys []string
			got := make(map[string][]any)
			if _, err := b.Drain(p, func(k string, v any, sz int64) {
				if sz != testSize(k, v) {
					t.Fatalf("accounted size drifted: %d vs %d", sz, testSize(k, v))
				}
				if vs, ok := got[k]; !ok || len(vs) == 0 {
					gotKeys = append(gotKeys, k)
				}
				got[k] = append(got[k], v)
			}); err != nil {
				t.Fatal(err)
			}

			// Reference: group in arrival order, then sort keys — the
			// in-memory shuffle contract after the reduce phase
			// normalises key order.
			want := make(map[string][]any)
			for _, r := range recs {
				if r.part == p {
					want[r.key] = append(want[r.key], r.val)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("partition %d: key count %d, want %d", p, len(got), len(want))
			}
			for k, vs := range want {
				if !reflect.DeepEqual(got[k], vs) {
					t.Fatalf("partition %d: key %q values %v, want %v", p, k, got[k], vs)
				}
			}
			// Drain sorts what it fetched, spilled segments and tail
			// alike: emitted key groups must be key-sorted whenever
			// anything hit disk.
			if b.Stats().Runs > 0 && !sort.StringsAreSorted(gotKeys) {
				t.Fatalf("partition %d: spilled drain emitted unsorted key groups: %v", p, gotKeys)
			}
		}
	})
}

// FuzzRunCodec round-trips arbitrary KV sequences through a buffer's
// spills — two of them, so a partition can have two segments — and a
// fetch's decode directly, asserting the replay is each partition's
// records in emission order.
func FuzzRunCodec(f *testing.F) {
	f.Add([]byte("hello world"), uint8(2))
	f.Add([]byte{0xff, 0x00, 0x7f}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, parts uint8) {
		np := int(parts%4) + 1
		type rec struct {
			part int
			key  string
			val  string
		}
		var recs []rec
		for i := 0; i+1 < len(data) && len(recs) < 256; i += 2 {
			recs = append(recs, rec{
				part: int(data[i]) % np,
				key:  fmt.Sprintf("k%03d", data[i+1]),
				val:  string(data[i : i+2]),
			})
		}
		b := NewBuffer(Config{Parts: np, Size: testSize, Dir: t.TempDir()})
		defer b.Close()
		for i, r := range recs {
			if i == len(recs)/2 {
				if err := b.spill(); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.Add(r.part, r.key, r.val); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.spill(); err != nil {
			t.Fatal(err)
		}
		var total int64
		for p := 0; p < np; p++ {
			var want []rec
			for _, r := range recs {
				if r.part == p {
					want = append(want, r)
				}
			}
			for _, s := range b.segs[p] {
				total += s.records
			}
			keys, vals, err := readSegs(b.f, b.segs[p]...)
			if err != nil {
				t.Fatalf("partition %d record %d: %v", p, len(keys), err)
			}
			if len(keys) != len(want) {
				t.Fatalf("partition %d replayed %d records, want %d", p, len(keys), len(want))
			}
			for i, k := range keys {
				if k != want[i].key || vals[i].(string) != want[i].val {
					t.Fatalf("partition %d record %d: got (%q,%v)", p, i, k, vals[i])
				}
			}
		}
		// The segment index must account exactly.
		if total != int64(len(recs)) {
			t.Fatalf("segment index records %d, want %d", total, len(recs))
		}
	})
}

// FuzzKeyOrder cuts arbitrary bytes into keys of mixed lengths — the
// first byte picks how — and holds SortIndex to the stable-sort oracle.
func FuzzKeyOrder(f *testing.F) {
	f.Add([]byte("\x03abcabcabdab\x00ab"))
	f.Add([]byte("\x07abcdefgabcdefghabcdefhabcdefg\x00abcdefg"))
	f.Add([]byte{1, 0, 0, 1, 0, 255, 255, 0})
	f.Add([]byte{})
	// Keys of 0 to 8 bytes in one column set; an odd first byte makes the
	// values strings.
	f.Add([]byte("\x0fthe quick brown fox jumps over the lazy dog, the quick brown fox"))
	f.Add([]byte("\x07the quick brown fox jumps over the lazy dog, the quick brown fox"))
	// "a", "a\x00" and "a\x00\x00": equal prefixes of different lengths.
	f.Add([]byte("\x02xa\x00a\x00xa\x00\x00a"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		strs := data[0]%2 == 1
		// Key lengths cycle 0..step, so every run has empty, short and
		// 8-byte keys over the same byte pool.
		step := int(data[0])%MaxKeyLen + 1
		data = data[1:]
		var keys []string
		for n := 0; len(data) > 0; n++ {
			l := min(n%(step+1), len(data))
			keys = append(keys, string(data[:l]))
			data = data[max(l, 1):]
		}
		checkKeyOrder(t, keys)
		checkGroupOrder(t, keys, strs)
	})
}
