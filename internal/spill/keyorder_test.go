package spill

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"unsafe"
)

// checkKeyOrder is the oracle for SortIndex: the permutation it produces
// must equal a stable sort by key, and CompareKeys must agree with
// strings.Compare on every adjacent pair of that permutation.
func checkKeyOrder(t *testing.T, keys []string) {
	t.Helper()
	idx := make([]KeyIndex, len(keys))
	want := make([]int32, len(keys))
	for i, k := range keys {
		idx[i] = MakeKeyIndex(k, i)
		want[i] = int32(i)
	}
	SortIndex(idx)
	sort.SliceStable(want, func(i, j int) bool { return keys[want[i]] < keys[want[j]] })
	for i := range idx {
		if idx[i].Pos != want[i] {
			t.Fatalf("position %d: SortIndex put record %d (%q), stable sort put %d (%q)",
				i, idx[i].Pos, keys[idx[i].Pos], want[i], keys[want[i]])
		}
		if i > 0 {
			got := CompareKeys(idx[i-1], idx[i])
			if ref := strings.Compare(keys[idx[i-1].Pos], keys[idx[i].Pos]); got != ref {
				t.Fatalf("CompareKeys(%q, %q) = %d, strings.Compare = %d",
					keys[idx[i-1].Pos], keys[idx[i].Pos], got, ref)
			}
		}
	}
}

// checkGroupOrder holds Group — values in a column of int64 or, with
// strs, of strings — to the same oracle: distinct keys in key order, each
// with its values in record order.
func checkGroupOrder(t *testing.T, keys []string, strs bool) {
	t.Helper()
	var recs Records
	want := map[string][]any{}
	for i, k := range keys {
		var v any = int64(i)
		if strs {
			v = fmt.Sprint(i)
		}
		recs.Append(k, v, int64(len(k)))
		want[k] = append(want[k], v)
	}
	g, err := Group(whole(&recs), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	gk := groupKeys(g)
	if len(gk) != len(want) || !sort.StringsAreSorted(gk) {
		t.Fatalf("%d groups %q, want the %d distinct keys in order", len(gk), gk, len(want))
	}
	for i, k := range gk {
		if vs := g.Values(i); !reflect.DeepEqual(vs, want[k]) || g.Sizes[i] != int64(len(k)*len(vs)) {
			t.Fatalf("group %q: values %v of %d bytes, want %v", k, vs, g.Sizes[i], want[k])
		}
	}
}

// groupKeys returns every group's key, in group order.
func groupKeys(g *Groups) []string {
	keys := make([]string, g.Len())
	a := NewKeyArena(len(keys))
	for i := range keys {
		keys[i] = g.Key(i, a)
	}
	return keys
}

// sortIndexCases are small key sets around every boundary of the
// abbreviated comparison.
func sortIndexCases() map[string][]string {
	long := "samepre" // shared by keys of up to MaxKeyLen bytes
	return map[string][]string{
		"empty and zero bytes": {"", "\x00", "", "\x00\x00", "a", ""},
		"trailing zero":        {"ab\x00", "ab", "ab\x00\x00", "ab", "ab\x00"},
		"lengths two apart":    {"\x00\x00", "", "ab\x00\x00", "ab"},
		"4 7 8 bytes":          {"abcdefgh", "abcd", "abcdefg", "abcdefgi", "abcdef", "abcdefg\x00", "abcdefg"},
		"eight with zeros":     {"abcdefg\x00", "abcdefg", "abcdef\x00\x00", "abcdefg\x00", "abcdef\x00", "abcdef"},
		"long shared prefix":   {long + "b", long, long + "a", long + "b", long[:5], long[:6], long + "\x00"},
		"high bytes":           {"\xff\xff\xff\xff\xff\xff\xff\xff", "\xff", "\x80abc", "\x7fabc", "\xff\xff\xff\xff\xff\xff\xff"},
		"heavy duplicates":     strings.Split(strings.Repeat("k1,k0,k2,k1,k0,", 40), ","),
		"already sorted":       {"a", "b", "c", "d"},
		"reversed":             {"d", "c", "b", "a"},
	}
}

func TestSortIndexMatchesStableSort(t *testing.T) {
	for name, keys := range sortIndexCases() {
		t.Run(name, func(t *testing.T) {
			checkKeyOrder(t, keys)
			checkGroupOrder(t, keys, false)
			checkGroupOrder(t, keys, true)
		})
		// The same keys again as a large index: every key many times over,
		// copies of one key never adjacent.
		t.Run(name+" x10000", func(t *testing.T) {
			var big []string
			for rep := 0; len(big) < 10_000 && len(keys) > 0; rep++ {
				for i := range keys {
					big = append(big, keys[(i+rep)%len(keys)])
				}
			}
			checkKeyOrder(t, big)
		})
	}
}

// fixedKeys returns n keys of width bytes (4 as the engine's U32Key, 8 as
// its PairKey) drawn so that exactly the low `varying` bytes differ across
// the set and every key occurs several times.
func fixedKeys(n, width, varying int, rng *rand.Rand) []string {
	distinct := make([]uint64, max(n/4, 1))
	for i := range distinct {
		distinct[i] = rng.Uint64()
		if varying < 8 {
			distinct[i] &= 1<<(8*varying) - 1
		}
	}
	// Force every one of the varying bytes to take two values.
	distinct[0], distinct[len(distinct)-1] = 0, math.MaxUint64>>(64-8*varying)
	keys := make([]string, n)
	for i := range keys {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], distinct[rng.Intn(len(distinct))])
		keys[i] = string(b[8-width:])
	}
	return keys
}

func TestSortIndexRadixPasses(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ width, varying int }{{4, 1}, {4, 3}, {4, 4}, {8, 1}, {8, 3}, {8, 8}} {
		t.Run(fmt.Sprintf("%d-byte keys %d varying", tc.width, tc.varying), func(t *testing.T) {
			checkKeyOrder(t, fixedKeys(12_000, tc.width, tc.varying, rng))
		})
	}
	t.Run("all equal", func(t *testing.T) {
		checkKeyOrder(t, strings.Split(strings.Repeat("samekey!,", 10_000), ","))
	})
	t.Run("equal prefixes of length 7 and 8", func(t *testing.T) {
		keys := make([]string, 10_000)
		for i := range keys {
			keys[i] = fmt.Sprintf("prefx-%d", i%3)
			if i%2 == 1 {
				keys[i] += string(rune('a' + i%5))
			}
		}
		checkKeyOrder(t, keys)
	})
}

func TestSortIndexRejectsDescendingPositions(t *testing.T) {
	keys := []string{"b", "a", "c"}
	for name, pos := range map[string][]int{"descending": {0, 2, 1}, "repeated": {0, 1, 1}, "wrapped": {0, 1, math.MinInt32}} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "ascending position order") {
					t.Fatalf("recovered %v, want the position contract's panic", r)
				}
			}()
			idx := make([]KeyIndex, len(keys))
			for i, k := range keys {
				idx[i] = MakeKeyIndex(k, pos[i])
			}
			SortIndex(idx)
		})
	}
}

// TestIndexableBound: positions and source numbers are refused before
// they could wrap, and the source number costs the index entry no byte.
func TestIndexableBound(t *testing.T) {
	if err := Indexable(math.MaxInt32); err != nil {
		t.Fatalf("2^31-1 records rejected: %v", err)
	}
	if err := Indexable(math.MaxInt32 + 1); err == nil {
		t.Fatal("2^31 records accepted: positions would wrap")
	}
	if err := Groupable(math.MaxUint16); err != nil {
		t.Fatalf("2^16-1 sources rejected: %v", err)
	}
	if _, err := Group(make([]Source, math.MaxUint16+1), nil, nil); err == nil {
		t.Fatal("2^16 sources grouped: source numbers would wrap")
	}
	if n := unsafe.Sizeof(KeyIndex{}); n != 16 {
		t.Fatalf("a KeyIndex takes %d bytes, want 16", n)
	}
}

// BenchmarkSortIndex sorts what an ordering reduce task fetches: the same
// key range from each of 40 map tasks, one after the other.
func BenchmarkSortIndex(b *testing.B) {
	for _, width := range []int{4, 8} {
		const runs, perRun = 40, 1000
		keys := make([]string, 0, runs*perRun)
		rng := rand.New(rand.NewSource(2))
		for r := 0; r < runs; r++ {
			run := fixedKeys(perRun, width, 3, rng)
			sort.Strings(run)
			keys = append(keys, run...)
		}
		fresh := make([]KeyIndex, len(keys))
		for i, k := range keys {
			fresh[i] = MakeKeyIndex(k, i)
		}
		idx := make([]KeyIndex, len(keys))
		b.Run(fmt.Sprintf("%d-byte keys", width), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(idx, fresh)
				SortIndex(idx)
			}
		})
	}
}
