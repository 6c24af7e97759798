package spill

import (
	"sort"
	"strings"
	"testing"
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
	key := func(pos int32) string { return keys[pos] }
	SortIndex(idx, key)
	sort.SliceStable(want, func(i, j int) bool { return keys[want[i]] < keys[want[j]] })
	for i := range idx {
		if idx[i].Pos != want[i] {
			t.Fatalf("position %d: SortIndex put record %d (%q), stable sort put %d (%q)",
				i, idx[i].Pos, keys[idx[i].Pos], want[i], keys[want[i]])
		}
		if i > 0 {
			got := CompareKeys(idx[i-1], idx[i], key)
			if ref := strings.Compare(keys[idx[i-1].Pos], keys[idx[i].Pos]); got != ref {
				t.Fatalf("CompareKeys(%q, %q) = %d, strings.Compare = %d",
					keys[idx[i-1].Pos], keys[idx[i].Pos], got, ref)
			}
		}
	}
}

func TestSortIndexMatchesStableSort(t *testing.T) {
	long := "sameprefix-and-then-some"
	cases := map[string][]string{
		"empty and zero bytes": {"", "\x00", "", "\x00\x00", "a", ""},
		"trailing zero":        {"ab\x00", "ab", "ab\x00\x00", "ab", "ab\x00"},
		"lengths two apart":    {"\x00\x00", "", "ab\x00\x00", "ab"},
		"4 8 9 bytes":          {"abcdefghi", "abcd", "abcdefgh", "abcdefghj", "abcdefg", "abcdefgh\x00", "abcdefgh"},
		"eight with zeros":     {"abcdefg\x00", "abcdefg", "abcdefg\x00\x00", "abcdefg\x00"},
		"long shared prefix":   {long + "b", long, long + "a", long + "b", long[:8], long[:9], long + "\x00"},
		"high bytes":           {"\xff\xff\xff\xff\xff\xff\xff\xff", "\xff", "\x80abc", "\x7fabc", "\xff\xff\xff\xff\xff\xff\xff\xff\x00"},
		"heavy duplicates":     strings.Split(strings.Repeat("k1,k0,k2,k1,k0,", 40), ","),
		"already sorted":       {"a", "b", "c", "d"},
		"reversed":             {"d", "c", "b", "a"},
	}
	for name, keys := range cases {
		t.Run(name, func(t *testing.T) { checkKeyOrder(t, keys) })
	}
}
