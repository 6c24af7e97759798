package spill

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// worded is a test type with a pointer-free head and a word tail, held in
// a tailed column.
type worded struct {
	id int32
	ws []uint32
}

type wordedHead struct{ id int32 }

func init() {
	RegisterTailed(tagTest+2, Codec[worded]{
		Append: func(buf []byte, v worded) []byte {
			return AppendU32s(binary.AppendVarint(buf, int64(v.id)), v.ws)
		},
		Read: func(d *Dec) worded { return worded{id: int32(d.Varint()), ws: d.U32s()} },
		Size: func(v worded) int { return 4 + 4*len(v.ws) },
	}, func(v worded) (wordedHead, []uint32) { return wordedHead{v.id}, v.ws },
		func(h wordedHead, ws []uint32) worded { return worded{h.id, ws} })
}

// wordedAt is value i of a test stream: tails of every length from none
// to past the largest regular chunk, so that some take a chunk of their
// own.
func wordedAt(i int) worded {
	n := i % 37
	if i%101 == 0 {
		n = 1<<tailMaxShift + i%3
	}
	ws := make([]uint32, n)
	for j := range ws {
		ws[j] = uint32(i*7919 + j)
	}
	return worded{id: int32(i), ws: ws}
}

// sameWorded reports whether a and b are one value, an empty tail equal to
// none.
func sameWorded(a, b worded) bool {
	return a.id == b.id && slices.Equal(a.ws, b.ws)
}

// TestTailedColumnMatchesBoxed: values of a tailed type sit in a tailed
// column in memory and decoded from a spill; their frames are AppendRecord's,
// and their groups, read as values of their type (AppendGroupValues) and
// boxed (Values), hold what was added, in order, under either budget.
// Values boxed before the groups are released keep their tails after the
// released chunks are reused.
func TestTailedColumnMatchesBoxed(t *testing.T) {
	const n, parts = 2000, 3
	for _, budget := range []int64{0, 4 << 10} {
		b := NewBuffer(Config{Parts: parts, Budget: budget, Size: testSize, Dir: t.TempDir()})
		want := map[string][]worded{}
		for i := 0; i < n; i++ {
			v, key := wordedAt(i), fmt.Sprintf("k%02d", i%40)
			if err := b.Add(i%40%parts, key, v); err != nil {
				t.Fatal(err)
			}
			want[key] = append(want[key], v)
		}
		if spilled := b.Stats().Runs > 0; spilled != (budget > 0) {
			t.Fatalf("budget %d: %d spills", budget, b.Stats().Runs)
		}
		for p := 0; p < parts; p++ {
			var fetched Records
			src, _, err := b.Fetch(p, &fetched, new(Fetcher))
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := src.Recs.vals.(*tailed[worded, wordedHead]); !ok {
				t.Fatalf("budget %d: partition %d is held in a %s", budget, p, src.Recs.Column())
			}
			for i := src.Lo; i < src.Hi; i++ {
				key, v := src.Recs.At(i)
				frame, err := src.Recs.Frame(nil, i)
				if want, _ := AppendRecord(nil, key, v); err != nil || string(frame) != string(want) {
					t.Fatalf("budget %d: record %d frames as %x (%v), want %x", budget, i, frame, err, want)
				}
			}
			g, err := Group([]Source{src}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			var boxed [][]any
			for i := 0; i < g.Len(); i++ {
				key := g.Key(i, NewKeyArena(1))
				got := AppendGroupValues[worded](nil, g, i)
				if len(got) != len(want[key]) {
					t.Fatalf("budget %d: group %s holds %d values, want %d", budget, key, len(got), len(want[key]))
				}
				for j := range got {
					if !sameWorded(got[j], want[key][j]) || !sameWorded(g.Values(i)[j].(worded), want[key][j]) {
						t.Fatalf("budget %d: group %s value %d differs", budget, key, j)
					}
				}
				boxed = append(boxed, g.Values(i))
			}
			g.Release()
			fetched.Release()
			b.Release(p)
			// The released chunks go to the next column, which overwrites them.
			var reuse Records
			ones := make([]uint32, 40)
			for i := range ones {
				ones[i] = ^uint32(0)
			}
			for i := 0; i < n; i++ {
				reuse.Append("x", worded{ws: ones}, 1)
			}
			for i, vs := range boxed {
				for j, v := range vs {
					if w := v.(worded); !sameWorded(w, want[fmt.Sprintf("k%02d", w.id%40)][int(w.id)/40]) {
						t.Fatalf("budget %d: group %d value %d changed once the groups were released", budget, i, j)
					}
				}
			}
			reuse.Release()
		}
	}
}

// TestBoxedFetchesCounted: a partition of boxed values counts in
// BoxedFetches when it is fetched, in memory or spilled; one in a column
// of its own type does not.
func TestBoxedFetchesCounted(t *testing.T) {
	for _, budget := range []int64{0, 256} {
		for _, tc := range []struct {
			v     func(i int) any
			boxed bool
		}{
			{func(i int) any { return pointerful{xs: []int32{int32(i)}} }, true},
			{func(i int) any { return int64(i) }, false},
			{func(i int) any { return wordedAt(i) }, false},
		} {
			b := NewBuffer(Config{Parts: 2, Budget: budget, Size: testSize, Dir: t.TempDir()})
			for i := 0; i < 50; i++ {
				if err := b.Add(0, fmt.Sprintf("k%d", i), tc.v(i)); err != nil {
					t.Fatal(err)
				}
			}
			before := BoxedFetches()
			for p := 0; p < 2; p++ {
				if _, _, err := b.Fetch(p, new(Records), new(Fetcher)); err != nil {
					t.Fatal(err)
				}
			}
			if got := BoxedFetches() - before; (got == 1) != tc.boxed || got > 1 {
				t.Errorf("budget %d, %T: %d boxed fetches", budget, tc.v(0), got)
			}
			b.Close()
		}
	}
}

// TestTailedDecodeAllocatesNothing: a spilled partition of a tailed type
// decodes into its column with no allocation per record — the codec reads
// each tail into the Dec's own words, which the column copies — only the
// column's chunks.
func TestTailedDecodeAllocatesNothing(t *testing.T) {
	const n = 20_000
	b := NewBuffer(Config{Parts: 1, Budget: 64 << 10, Size: testSize, Dir: t.TempDir()})
	defer b.Close()
	for i := 0; i < n; i++ {
		if err := b.Add(0, fmt.Sprintf("k%04d", i%5000), worded{id: int32(i), ws: []uint32{uint32(i), 1, 2}}); err != nil {
			t.Fatal(err)
		}
	}
	var fetched Records
	f := new(Fetcher)
	allocs := testing.AllocsPerRun(5, func() {
		fetched.Release()
		if _, _, err := b.Fetch(0, &fetched, f); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations for %d decoded records", allocs, n)
	if allocs > n/100 {
		t.Fatalf("%.0f allocations to decode %d records", allocs, n)
	}
	if got := fetched.Len(); got != n {
		t.Fatalf("decoded %d records, want %d", got, n)
	}
	if _, v := fetched.At(n - 1); !reflect.DeepEqual(v, worded{id: n - 1, ws: []uint32{n - 1, 1, 2}}) {
		t.Fatalf("last record decodes to %+v", v)
	}
}

// TestAppendGroupValuesEveryKind: an unfolded group reads as its values'
// type out of a typed column, a tailed one and boxed values alike, and a
// read as another type panics rather than returning nothing.
func TestAppendGroupValuesEveryKind(t *testing.T) {
	for _, tc := range []struct {
		name string
		vs   []any
	}{
		{"typed", []any{int64(1), int64(2), int64(3)}},
		{"tailed", []any{wordedAt(1), wordedAt(2), wordedAt(3)}},
		{"boxed", []any{int64(1), "two", int64(3)}},
	} {
		var recs Records
		for _, v := range tc.vs {
			recs.Append("k", v, 1)
		}
		g, err := Group([]Source{{Recs: &recs, Hi: recs.Len()}}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := g.Values(0); !reflect.DeepEqual(got, tc.vs) {
			t.Errorf("%s: Values = %v, want %v", tc.name, got, tc.vs)
		}
		switch tc.vs[0].(type) {
		case int64:
			if tc.name == "typed" {
				if got := AppendGroupValues[int64](nil, g, 0); !slices.Equal(got, []int64{1, 2, 3}) {
					t.Errorf("%s: read as int64: %v", tc.name, got)
				}
			}
		case worded:
			got := AppendGroupValues[worded](nil, g, 0)
			for j := range got {
				if !sameWorded(got[j], tc.vs[j].(worded)) {
					t.Errorf("%s: value %d reads as %+v", tc.name, j, got[j])
				}
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: read as int32, nothing panicked", tc.name)
				}
			}()
			AppendGroupValues[int32](nil, g, 0)
		}()
		g.Release()
	}
}

// TestGroupTakesTails: grouping sources of a tailed type — two of them
// ranges of one Records, as a reduce task's spilled partitions are —
// moves their tails into the groups rather than copying them. The groups
// read what was added, in source then record order, after the sources
// are released and their released chunks refilled; at Release their
// chunks go back, but the sources' first word chunks, which are theirs.
func TestGroupTakesTails(t *testing.T) {
	var shared, own Records
	want := map[string][]worded{}
	add := func(r *Records, from, to int) {
		for i := from; i < to; i++ {
			v, key := wordedAt(i), fmt.Sprintf("k%d", i%7)
			r.Append(key, v, 1)
			want[key] = append(want[key], v)
		}
	}
	add(&shared, 0, 300)
	add(&own, 300, 500)
	add(&shared, 500, 800)
	srcs := []Source{{Recs: &shared, Hi: 300}, {Recs: &own, Hi: 200}, {Recs: &shared, Lo: 300, Hi: 600}}
	g, err := Group(srcs, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(shared.vals.(*tailed[worded, wordedHead]).words.chunks); n != 0 {
		t.Fatalf("a source kept %d word chunks after grouping", n)
	}
	shared.Release()
	own.Release()
	var refill Records
	for i := 0; i < 800; i++ {
		refill.Append("x", worded{ws: []uint32{^uint32(0), ^uint32(0), ^uint32(0)}}, 1)
	}
	if g.Len() != len(want) {
		t.Fatalf("%d groups, want %d", g.Len(), len(want))
	}
	for i := 0; i < g.Len(); i++ {
		key := g.Key(i, NewKeyArena(1))
		got := AppendGroupValues[worded](nil, g, i)
		if len(got) != len(want[key]) {
			t.Fatalf("group %s holds %d values, want %d", key, len(got), len(want[key]))
		}
		for j := range got {
			if !sameWorded(got[j], want[key][j]) {
				t.Fatalf("group %s value %d reads %+v, want %+v", key, j, got[j], want[key][j])
			}
		}
	}
	refill.Release()
	g.Release()
	for shift := range tailFirstShift {
		if n := len(wordPools[shift].items); n != 0 {
			t.Fatalf("%d word chunks of %d words pooled: a column's first chunk is its own", n, 1<<shift)
		}
	}
}
