package spill

import (
	"fmt"
	"testing"
)

// boundaries are list lengths on either side of the first chunk, of each
// doubling (chunk k ends at 8·(2^(k+1)−1)) and of the first chunks of
// capped size.
var boundaries = []int{0, 1, 7, 8, 9, 23, 24, 25, 55, 56, 57, 119, 120, 121, 247, 248, 249,
	503, 504, 505, 1015, 1016, 1017, 2039, 2040, 2041, 3063, 3064, 3065}

func TestListMatchesSlice(t *testing.T) {
	for _, n := range boundaries {
		var l List[int]
		var want []int
		var first *int
		for i := 0; i < n; i++ {
			l.Append(i * 3)
			want = append(want, i*3)
			if i == 0 {
				first = l.At(0)
			}
		}
		if l.Len() != n {
			t.Fatalf("n=%d: Len %d", n, l.Len())
		}
		for i := range want {
			if *l.At(i) != want[i] {
				t.Fatalf("n=%d: At(%d)=%d want %d", n, i, *l.At(i), want[i])
			}
		}
		if n > 0 && first != l.At(0) {
			t.Fatalf("n=%d: growth moved record 0", n)
		}
	}
}

func TestListResetZeroesAndReuses(t *testing.T) {
	for _, n := range boundaries {
		var l List[*int]
		for i := 0; i < n; i++ {
			l.Append(new(int))
		}
		chunks := len(l.chunks)
		l.Reset()
		if l.Len() != 0 {
			t.Fatalf("n=%d: Len %d after Reset", n, l.Len())
		}
		for _, c := range l.chunks {
			for _, p := range c {
				if p != nil {
					t.Fatalf("n=%d: dropped record still referenced", n)
				}
			}
		}
		for i := 0; i < n; i++ {
			l.Append(nil)
		}
		if len(l.chunks) != chunks {
			t.Fatalf("n=%d: refill allocated chunks (%d -> %d)", n, chunks, len(l.chunks))
		}
	}
}

// TestListTrim: after a refill shorter than the list once was, Trim frees
// exactly the chunks past the last record and the list stays usable.
func TestListTrim(t *testing.T) {
	for _, refill := range boundaries {
		var l, want List[int]
		for i := 0; i < 4000; i++ {
			l.Append(-1)
		}
		l.Reset()
		for i := 0; i < refill; i++ {
			l.Append(i)
			want.Append(i)
		}
		l.Trim()
		if len(l.chunks) != len(want.chunks) {
			t.Fatalf("refill=%d: %d chunks kept, a fresh list has %d", refill, len(l.chunks), len(want.chunks))
		}
		l.Append(refill)
		for i := 0; i <= refill; i++ {
			if *l.At(i) != i {
				t.Fatalf("refill=%d: At(%d)=%d", refill, i, *l.At(i))
			}
		}
	}
}

// TestBufferFoldSlotsSurviveGrowth folds into keys stored in every chunk
// after the partition has grown past each boundary: the slot positions
// recorded at first sight must still address the same records.
func TestBufferFoldSlotsSurviveGrowth(t *testing.T) {
	sum := func(acc, v any) any { return acc.(int64) + v.(int64) }
	for _, n := range boundaries[1:] {
		b := NewBuffer(Config{Parts: 2, Size: testSize, Fold: sum})
		for round := 0; round < 3; round++ {
			for i := 0; i < n; i++ {
				if err := b.Add(i%2, fmt.Sprintf("k%04d", i), int64(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		keys, vals := drainAll(t, b, 2)
		if len(keys[0])+len(keys[1]) != n {
			t.Fatalf("n=%d: %d records, want one per key", n, len(keys[0])+len(keys[1]))
		}
		for p := range keys {
			for j, k := range keys[p] {
				var i int
				fmt.Sscanf(k, "k%d", &i)
				if i != 2*j+p || vals[p][j].(int64) != int64(3*i) {
					t.Fatalf("n=%d: part %d slot %d holds %s=%v", n, p, j, k, vals[p][j])
				}
			}
		}
		b.Close()
	}
}
