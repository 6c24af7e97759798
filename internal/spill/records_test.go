package spill

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// sumTyped folds int64 counts, boxed and unboxed.
type sumTyped struct{}

func (sumTyped) Fold(acc, v any) any           { return acc.(int64) + v.(int64) }
func (sumTyped) FoldTyped(acc *int64, v int64) { *acc += v }

// mixedLengthKeys returns 169 distinct keys of mixed lengths: empty, and
// 3, 4, 7 and 8 bytes, the longest a key may be. 169 is prime to the
// strides the tests walk it with, so every key is used.
func mixedLengthKeys() []string {
	keys := []string{""}
	for i := 0; i < 42; i++ {
		for _, l := range []int{3, 4, 7, 8} {
			keys = append(keys, fmt.Sprintf("%0*d", l, i))
		}
	}
	return keys
}

// drainRecords fetches every partition of b as a reduce task does and
// reads its records back.
func drainRecords(t *testing.T, b *Buffer, parts int) (keys []string, vals []any, sizes []int64) {
	t.Helper()
	for p := 0; p < parts; p++ {
		var recs Records
		src, _, err := b.Fetch(p, &recs, new(Fetcher))
		if err != nil {
			t.Fatal(err)
		}
		for i := src.Lo; i < src.Hi; i++ {
			k, v := src.Recs.At(i)
			keys, vals, sizes = append(keys, k), append(vals, v), append(sizes, src.Recs.heads.At(i).bytes())
		}
	}
	return keys, vals, sizes
}

// whole is all of r, as the one source of a Group.
func whole(r *Records) []Source { return []Source{{Recs: r, Hi: r.Len()}} }

// TestTypedFoldMatchesBoxedFold: the same stream folded unboxed and boxed
// leaves identical accumulators, sizes and spill statistics — at emit in
// memory, re-folded by the fetch across runs, and folded per group on
// the reduce side.
func TestTypedFoldMatchesBoxedFold(t *testing.T) {
	var f sumTyped
	keys, n := mixedLengthKeys(), 4000
	for _, budget := range []int64{0, 2048, 512} {
		t.Run(fmt.Sprint("budget ", budget), func(t *testing.T) {
			cfg := Config{Parts: 2, Budget: budget, Size: testSize, Fold: f.Fold, Dir: t.TempDir()}
			bb := NewBuffer(cfg)
			cfg.TypedFold = f
			bt := NewBuffer(cfg)
			defer bt.Close()
			defer bb.Close()
			for i := 0; i < n; i++ {
				k := keys[(i*3)%len(keys)]
				for _, b := range []*Buffer{bt, bb} {
					if err := b.Add(len(k)%2, k, int64(i)); err != nil {
						t.Fatal(err)
					}
				}
			}
			if _, ok := bt.parts[0].vals.(*column[int64]); !ok {
				t.Fatalf("values are held in a %T, want the int64 column", bt.parts[0].vals)
			}
			if bt.Stats() != bb.Stats() || (budget > 0 && bt.Stats().Runs == 0) {
				t.Fatalf("stats %+v unboxed, %+v boxed", bt.Stats(), bb.Stats())
			}
			kt, vt, st := drainRecords(t, bt, 2)
			kb, vb, sb := drainRecords(t, bb, 2)
			if !reflect.DeepEqual(kt, kb) || !reflect.DeepEqual(vt, vb) || !reflect.DeepEqual(st, sb) {
				t.Fatalf("drains differ:\n%v %v %v\n%v %v %v", kt, vt, st, kb, vb, sb)
			}
			if len(kt) != len(keys) {
				t.Fatalf("%d accumulators for %d keys", len(kt), len(keys))
			}
		})
	}

	// The reduce side: one record per addition, grouped and folded.
	var recs Records
	for i := 0; i < n; i++ {
		recs.Append(keys[(i*3)%len(keys)], int64(i), 24)
	}
	gt, err := Group(whole(&recs), f.Fold, f)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := Group(whole(&recs), f.Fold, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := gt.accs.(*column[int64]); !ok {
		t.Fatalf("accumulators are held in a %T, want the int64 column", gt.accs)
	}
	kt, kb := groupKeys(gt), groupKeys(gb)
	if !reflect.DeepEqual(kt, kb) || !reflect.DeepEqual(gt.Sizes, gb.Sizes) || !sort.StringsAreSorted(kt) {
		t.Fatalf("groups differ: %v %v / %v %v", kt, gt.Sizes, kb, gb.Sizes)
	}
	for g := range kt {
		if gt.Acc(g) != gb.Acc(g) {
			t.Fatalf("key %q: %v unboxed, %v boxed", kt[g], gt.Acc(g), gb.Acc(g))
		}
	}
}

// keepFirst is a dedup fold: its unboxed form is declared, not written.
type keepFirst struct{}

func (keepFirst) Fold(acc, v any) any { return acc }
func (keepFirst) KeepsFirst()         {}

// TestKeepsFirstFoldsEveryColumn: a fold that keeps its first value works
// unboxed on a typed column, on the []any fallback, and across a change of
// column in mid-partition.
func TestKeepsFirstFoldsEveryColumn(t *testing.T) {
	for name, vals := range map[string][]any{
		"typed": {int64(1), int64(2), int64(3), int64(4)},
		"boxed": {"a", "b", "c", "d"},
		"mixed": {int64(1), int64(2), "c", nil},
	} {
		t.Run(name, func(t *testing.T) {
			var f keepFirst
			b := NewBuffer(Config{Parts: 1, Size: testSize, Fold: f.Fold, TypedFold: f})
			defer b.Close()
			for round := 0; round < 3; round++ {
				for i, v := range vals {
					if round > 0 {
						v = vals[(i+round)%len(vals)]
					}
					if err := b.Add(0, fmt.Sprint("key", i), v); err != nil {
						t.Fatal(err)
					}
				}
			}
			_, got, _ := drainRecords(t, b, 1)
			if !reflect.DeepEqual(got, vals) {
				t.Fatalf("kept %v, want the first values %v", got, vals)
			}
		})
	}
}

// TestRecordsHoldAnything: values of a registered type sit in its column
// until a value of another type, or nil, arrives; from then on the
// partition is boxed, and reads back what was stored either way.
func TestRecordsHoldAnything(t *testing.T) {
	var recs, other Records
	want := []any{int64(7), int64(8)}
	for i, v := range want {
		recs.Append(fmt.Sprint("k", i), v, 10)
	}
	if _, ok := recs.vals.(*column[int64]); !ok {
		t.Fatalf("two int64 values are held in a %T", recs.vals)
	}
	for _, v := range []any{nil, "s", unregistered{n: 1}, int64(9)} {
		want = append(want, v)
		recs.Append("eightkey", v, 10)
	}
	var got []any
	var keys []string
	recs.Each(func(k string, v any, sz int64) bool {
		got, keys = append(got, v), append(keys, k)
		return sz == 10
	})
	if !reflect.DeepEqual(got, want) || recs.Len() != len(want) || recs.Bytes() != int64(10*recs.Len()) {
		t.Fatalf("read back %v (%d records, %d bytes), stored %v", got, recs.Len(), recs.Bytes(), want)
	}
	if wantKeys := "k0 k1" + strings.Repeat(" eightkey", 4); strings.Join(keys, " ") != wantKeys {
		t.Fatalf("keys %q, want %q", keys, wantKeys)
	}

	// Grouped with a typed source before and after it, the boxed records
	// and the typed ones come out together, in source order.
	other.Append("u", uint32(1), 10)
	other.Append("v", uint32(2), 10)
	var typed Records
	typed.Append("u", uint32(0), 10)
	g, err := Group([]Source{{Recs: &typed, Hi: 1}, {Recs: &recs, Hi: recs.Len()}, {Recs: &other, Hi: 2}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string][]any{}
	for i, k := range groupKeys(g) {
		byKey[k] = g.Values(i)
	}
	if wantGroups := map[string][]any{
		"eightkey": want[2:],
		"k0":       {int64(7)},
		"k1":       {int64(8)},
		"u":        {uint32(0), uint32(1)},
		"v":        {uint32(2)},
	}; !reflect.DeepEqual(byKey, wantGroups) {
		t.Fatalf("groups %v, want %v", byKey, wantGroups)
	}
}

// TestAppendTypedRefuses: AppendTyped stores a record only into a column
// already of its value's registered, pointer-free type, whatever the
// lengths of the keys, and otherwise stores nothing; what it stores is
// sized by the column's codec.
func TestAppendTypedRefuses(t *testing.T) {
	k := MakeKeyIndex("pair-key", 0)
	for _, tc := range []struct {
		name  string
		first func(r *Records) // nil: the records are empty
		store func(r *Records) bool
		want  bool
	}{
		{"empty", nil, func(r *Records) bool { return AppendTyped(r, k, int64(1), 16) }, false},
		{"typed", func(r *Records) { r.Append("k", int64(0), 17) }, func(r *Records) bool { return AppendTyped(r, k, int64(1), 16) }, true},
		{"other type", func(r *Records) { r.Append("k", int64(0), 17) }, func(r *Records) bool { return AppendTyped(r, k, int32(1), 16) }, false},
		{"boxed", func(r *Records) { r.Append("k", "s", 17) }, func(r *Records) bool { return AppendTyped[any](r, k, int64(1), 16) }, false},
		{"pointerful", func(r *Records) { r.Append("k", pointerful{}, 17) }, func(r *Records) bool { return AppendTyped(r, k, pointerful{}, 16) }, false},
		{"shorter key kept", func(r *Records) { r.Append("seven-b", int64(0), 17) }, func(r *Records) bool { return AppendTyped(r, k, int64(1), 16) }, true},
		{"shorter key given", func(r *Records) { r.Append("pair-key", int64(0), 17) }, func(r *Records) bool { return AppendTyped(r, MakeKeyIndex("seven-b", 0), int64(1), 16) }, true},
	} {
		var r Records
		if tc.first != nil {
			tc.first(&r)
		}
		n, b := r.Len(), r.Bytes()
		if got := tc.store(&r); got != tc.want {
			t.Errorf("%s: AppendTyped reported %v, want %v", tc.name, got, tc.want)
		}
		switch {
		case !tc.want && (r.Len() != n || r.Bytes() != b):
			t.Errorf("%s: refused, yet %d records of %d bytes became %d of %d", tc.name, n, b, r.Len(), r.Bytes())
		case tc.want && (r.Len() != n+1 || r.Bytes() != b+16+8):
			t.Errorf("%s: %d records of %d bytes, want %d of %d", tc.name, r.Len(), r.Bytes(), n+1, b+16+8)
		}
	}
}

// pointerful is registered, and holds a pointer: no []pointerful column.
type pointerful struct{ xs []int32 }

func init() {
	Register(tagTest+1, Codec[pointerful]{
		Append: func(buf []byte, v pointerful) []byte { return AppendI32s(buf, v.xs) },
		Read:   func(d *Dec) pointerful { return pointerful{xs: d.I32s()} },
		Size:   func(v pointerful) int { return 4 * len(v.xs) },
	})
}

// TestPointerfulTypeIsHeldBoxed: Register picks the column from the type — a
// []T for a pointer-free T, none for a T the garbage collector must scan,
// whose values sit in the []any column and cross the disk all the same.
func TestPointerfulTypeIsHeldBoxed(t *testing.T) {
	for _, tc := range []struct {
		name string
		typ  reflect.Type
		free bool
	}{
		{"string", reflect.TypeFor[string](), false},
		{"slice field", reflect.TypeFor[struct{ xs []int32 }](), false},
		{"pointer in an array in a struct", reflect.TypeFor[struct{ a [2]struct{ p *int } }](), false},
		{"interface", reflect.TypeFor[struct{ v any }](), false},
		{"arrays and structs of numbers", reflect.TypeFor[struct {
			a [3]uint16
			b struct{ f float64 }
		}](), true},
	} {
		if pointerFree(tc.typ) != tc.free {
			t.Errorf("%s: pointerFree = %v", tc.name, !tc.free)
		}
	}
	if _, ok := columnFor(registered{}).(*column[registered]); !ok {
		t.Errorf("a registered pointer-free type is held in a %T", columnFor(registered{}))
	}
	b := NewBuffer(Config{Parts: 1, Budget: 256, Size: testSize, Dir: t.TempDir()})
	defer b.Close()
	var want []any
	for i := 0; i < 100; i++ {
		want = append(want, pointerful{xs: []int32{int32(i), -1}})
		if err := b.Add(0, fmt.Sprintf("k%03d", i), want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := b.parts[0].vals.(*column[any]); !ok {
		t.Fatalf("values with a slice in them are held in a %T", b.parts[0].vals)
	}
	if b.Stats().Runs == 0 {
		t.Fatalf("registered values did not spill: %+v", b.Stats())
	}
	if _, got, _ := drainRecords(t, b, 1); !reflect.DeepEqual(got, want) {
		t.Fatalf("read back %v, stored %v", got, want)
	}
}

// TestSlotTablePositionBound: a slot holds a record position plus one in an
// int32, so the last position it may book is 2^31−2; the next is refused
// with the sort index's error, not wrapped into a slot that reads as empty
// or as another record. The partition's length is stubbed: the real thing
// takes 100 GB of records.
func TestSlotTablePositionBound(t *testing.T) {
	var tab slotTable
	var recs Records
	k := MakeKeyIndex("key", 0)
	if at, err := tab.findOrAdd(&recs, k, math.MaxInt32-1); at != -1 || err != nil {
		t.Fatalf("position 2^31−2: %d, %v", at, err)
	}
	if tab.slots[slotHash(k)&uint32(len(tab.slots)-1)].pos != math.MaxInt32 {
		t.Fatalf("slots %v do not hold position 2^31−2", tab.slots)
	}
	k = MakeKeyIndex("next", 0)
	_, err := tab.findOrAdd(&recs, k, math.MaxInt32)
	if want := Indexable(math.MaxInt32 + 1); err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("position 2^31−1: %v, want %v", err, want)
	}
	if tab.used != 1 {
		t.Fatalf("the refused key was booked: %d slots used", tab.used)
	}
}

// TestAppendRecordFromColumns: a record encoded out of its columns is byte
// for byte the record AppendRecord encodes from the key and the boxed value
// — the run format does not know about columns — and for a builtin kind in
// its column it is encoded without boxing the value on the heap.
func TestAppendRecordFromColumns(t *testing.T) {
	var typed, boxed Records
	keys := mixedLengthKeys()
	for i, k := range keys {
		typed.Append(k, int64(i)<<(i%50), 1)
		var v any = registered{n: int32(i)}
		if i%3 == 0 {
			v = []uint32{uint32(i)}
		}
		boxed.Append(k, v, 1)
	}
	for _, recs := range []*Records{&typed, &boxed} {
		i := 0
		recs.Each(func(k string, v any, _ int64) bool {
			want, err := AppendRecord([]byte("prefix"), k, v)
			if err != nil {
				t.Fatal(err)
			}
			got, err := recs.Frame([]byte("prefix"), i)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("record %d (%q, %v): %x (%v), want %x", i, k, v, got, err, want)
			}
			i++
			return true
		})
	}
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() {
		for i := range keys {
			buf, _ = typed.Frame(buf[:0], i)
		}
	}); n != 0 {
		t.Fatalf("%v allocations to encode %d int64 records from their column", n, len(keys))
	}
	var none Records
	none.Append("k", unregistered{n: 1}, 1)
	if got, err := none.Frame([]byte("as given"), 0); err == nil || string(got) != "as given" {
		t.Fatalf("a value without a codec encoded to %q, %v", got, err)
	}

	// Every registered type: out of its own column when it has one, through
	// its typed codec, a value is written as it is out of a box.
	for i, g := range goldenFrames {
		_, v := goldenFrame(t, i)
		var recs Records
		for _, k := range keys[:5] {
			recs.Append(k, v, 1)
		}
		kind := kindsByType[reflect.TypeOf(v)]
		if _, boxed := recs.vals.(*column[any]); boxed != (kind == nil || kind.column == nil) {
			t.Fatalf("%s values are held in a %T", g.typ, recs.vals)
		}
		for j, k := range keys[:5] {
			want, err := AppendRecord(nil, k, v)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := recs.Frame(nil, j); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s record %d: %x (%v) out of a %T, want %x", g.typ, j, got, err, recs.vals, want)
			}
		}
	}
}

// TestAddFromMatchesAdd: records added out of another Records' columns
// fold, spill and drain exactly as the same records added boxed — between
// two columns of one type, across a typed and a boxed one, with and
// without a fold (unboxed or boxed), at every budget — and the source is
// left as it was. Values that have no codec are held at budget 0; under a
// budget, the first spill fails Add and AddFrom alike with ErrNoCodec.
func TestAddFromMatchesAdd(t *testing.T) {
	keys := mixedLengthKeys()
	sources := map[string]func(i int) any{
		"int64": func(i int) any { return int64(i) },
		"mixed": func(i int) any {
			switch i % 41 {
			case 7:
				return nil
			case 19:
				return "a string among the counts"
			}
			return int64(i)
		},
		"no codec": func(i int) any { return unregistered{n: i} },
	}
	folds := map[string]*folder{
		"none":       nil,
		"sum":        {boxed: sumTyped{}.Fold, typed: sumTyped{}},
		"sum boxed":  {boxed: sumTyped{}.Fold},
		"keep first": {boxed: keepFirst{}.Fold, typed: keepFirst{}},
	}
	for sname, value := range sources {
		for fname, f := range folds {
			if strings.HasPrefix(fname, "sum") && sname != "int64" {
				continue
			}
			for _, budget := range []int64{0, 2048, 512} {
				t.Run(fmt.Sprintf("%s/%s/budget %d", sname, fname, budget), func(t *testing.T) {
					var src Records
					for i := 0; i < 3000; i++ {
						k := keys[(i*7)%len(keys)]
						src.Append(k, value(i), testSize(k, value(i)))
					}
					var before []any
					src.Each(func(_ string, v any, _ int64) bool { before = append(before, v); return true })
					cfg := Config{Parts: 2, Budget: budget, Size: testSize, Dir: t.TempDir()}
					if f != nil {
						cfg.Fold, cfg.TypedFold = f.boxed, f.typed
					}
					boxed, columns := NewBuffer(cfg), NewBuffer(cfg)
					defer boxed.Close()
					defer columns.Close()
					noCodec := sname == "no codec" && budget > 0
					for i := 0; i < src.Len(); i++ {
						k, v := src.At(i)
						errAdd := boxed.Add(len(k)%2, k, v)
						errFrom := columns.AddFrom(len(k)%2, &src, i)
						if noCodec && (errAdd != nil || errFrom != nil) {
							if !errors.Is(errAdd, ErrNoCodec) || !errors.Is(errFrom, ErrNoCodec) {
								t.Fatalf("record %d: Add = %v, AddFrom = %v, want ErrNoCodec from both", i, errAdd, errFrom)
							}
							return
						}
						if errAdd != nil || errFrom != nil {
							t.Fatalf("record %d: Add = %v, AddFrom = %v", i, errAdd, errFrom)
						}
					}
					if boxed.Stats() != columns.Stats() {
						t.Fatalf("stats %+v added, %+v from columns", boxed.Stats(), columns.Stats())
					}
					if budget == 512 && boxed.Stats().Runs == 0 {
						t.Fatal("nothing spilled")
					}
					kb, vb, sb := drainRecords(t, boxed, 2)
					kc, vc, sc := drainRecords(t, columns, 2)
					if !reflect.DeepEqual(kb, kc) || !reflect.DeepEqual(vb, vc) || !reflect.DeepEqual(sb, sc) {
						t.Fatalf("drains differ:\n%v %v %v\n%v %v %v", kb, vb, sb, kc, vc, sc)
					}
					var after []any
					src.Each(func(_ string, v any, _ int64) bool { after = append(after, v); return true })
					if !reflect.DeepEqual(before, after) {
						t.Fatal("AddFrom changed its source")
					}
				})
			}
		}
	}
}

// TestGroupConcurrent: Group borrows its sort index and radix scratch from
// a pool shared by every goroutine. Eight goroutines grouping records of
// their own, over and over — unfolded, folded unboxed and folded boxed, in
// sizes that reuse and outgrow pooled arrays — must each get what grouping
// alone gives; under -race a pooled array handed out twice is a report.
func TestGroupConcurrent(t *testing.T) {
	var f sumTyped
	keys := mixedLengthKeys()
	const workers = 8
	recs := make([]*Records, workers)
	want := make([][3]*Groups, workers)
	group := func(r *Records) ([3]*Groups, error) {
		var out [3]*Groups
		for i, fold := range []struct {
			boxed func(acc, v any) any
			typed any
		}{{nil, nil}, {f.Fold, f}, {f.Fold, nil}} {
			g, err := Group(whole(r), fold.boxed, fold.typed)
			if err != nil {
				return out, err
			}
			out[i] = g
		}
		return out, nil
	}
	for w := range recs {
		recs[w] = new(Records)
		for i := 0; i < 300*(w+1); i++ {
			recs[w].Append(keys[(i*7+w)%len(keys)], int64(i), int64(8+w))
		}
		var err error
		if want[w], err = group(recs[w]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				if got, err := group(recs[w]); err != nil || !reflect.DeepEqual(got, want[w]) {
					t.Errorf("worker %d, round %d: groups differ from grouping alone (%v)", w, round, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// sumAny folds counts of several kinds into an int64: boxed from any of
// them, unboxed only over an int64 column. A string counts as its length,
// nil as nothing.
type sumAny struct{}

func (sumAny) Fold(acc, v any) any { return count(acc) + count(v) }

func (sumAny) FoldTyped(acc *int64, v int64) { *acc += v }

func count(v any) int64 {
	switch x := v.(type) {
	case int64:
		return x
	case uint32:
		return int64(x)
	case string:
		return int64(len(x))
	}
	return 0
}

// TestGroupMatchesConcatenation: Group over random sources — empty ones,
// several lying in one shared Records between records of no source, keys
// of every length, int64, uint32 and []any columns mixed across sources —
// cuts the same groups as Group over one Records the sources' records are
// appended to in order: the same keys, sizes and values, unfolded, folded
// unboxed or folded boxed, and accumulators unboxed exactly when the
// concatenation's are.
func TestGroupMatchesConcatenation(t *testing.T) {
	keys := mixedLengthKeys()
	folds := map[string]*folder{
		"plain": nil,
		"typed": {boxed: sumAny{}.Fold, typed: sumAny{}},
		"boxed": {boxed: sumAny{}.Fold},
	}
	kinds := []func(i int) any{
		func(i int) any { return int64(i) },
		func(i int) any { return uint32(i) },
		func(i int) any {
			switch i % 5 {
			case 1:
				return fmt.Sprint(i)
			case 3:
				return nil
			}
			return int64(i)
		},
	}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Every source draws its values from one kind; half the time all
		// sources draw from the first, so typed columns meet often.
		kind := func() func(int) any { return kinds[0] }
		if seed%2 == 1 {
			kind = func() func(int) any { return kinds[rng.Intn(len(kinds))] }
		}
		shared := new(Records)
		var srcs []Source
		var concat Records
		for s, n := 0, rng.Intn(7); s < n; s++ {
			recs, value := shared, kind()
			if rng.Intn(2) == 0 {
				recs = new(Records)
			}
			add := func(n int, value func(int) any) {
				for i := 0; i < n; i++ {
					k, v := keys[rng.Intn(len(keys))], value(rng.Intn(1000))
					recs.Append(k, v, testSize(k, v))
				}
			}
			// Records of no source, of the kind that leaves a column as
			// the sources' records make it.
			add(rng.Intn(3), kinds[0])
			lo, length := recs.Len(), rng.Intn(60)
			if rng.Intn(4) == 0 {
				length = 0
			}
			add(length, value)
			srcs = append(srcs, Source{Recs: recs, Lo: lo, Hi: recs.Len()})
			for i := lo; i < recs.Len(); i++ {
				k, v := recs.At(i)
				concat.Append(k, v, recs.heads.At(i).bytes())
			}
		}
		for name, f := range folds {
			var fold func(acc, v any) any
			var typed any
			if f != nil {
				fold, typed = f.boxed, f.typed
			}
			got, err := Group(srcs, fold, typed)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Group(whole(&concat), fold, typed)
			if err != nil {
				t.Fatal(err)
			}
			if msg := diffGroups(got, want, f != nil); msg != "" {
				t.Fatalf("seed %d, %s, %d sources: %s", seed, name, len(srcs), msg)
			}
		}
	}
}

// diffGroups describes the first way got and want differ, or returns "".
func diffGroups(got, want *Groups, folded bool) string {
	if got.Len() != want.Len() {
		return fmt.Sprintf("%d groups, want %d", got.Len(), want.Len())
	}
	if !reflect.DeepEqual(got.Sizes, want.Sizes) {
		return fmt.Sprintf("sizes %v, want %v", got.Sizes, want.Sizes)
	}
	ga, wa := NewKeyArena(got.Len()), NewKeyArena(want.Len())
	for i := 0; i < got.Len(); i++ {
		if got.Abbrev(i) != want.Abbrev(i) || got.Key(i, ga) != want.Key(i, wa) {
			return fmt.Sprintf("group %d: key %q, want %q", i, got.Key(i, ga), want.Key(i, wa))
		}
		if !folded {
			if !reflect.DeepEqual(got.Values(i), want.Values(i)) {
				return fmt.Sprintf("group %d: values %v, want %v", i, got.Values(i), want.Values(i))
			}
			continue
		}
		if got.Acc(i) != want.Acc(i) {
			return fmt.Sprintf("group %d: accumulator %v, want %v", i, got.Acc(i), want.Acc(i))
		}
		gv, gok := GroupAcc[int64](got, i)
		wv, wok := GroupAcc[int64](want, i)
		if gv != wv || gok != wok {
			return fmt.Sprintf("group %d: unboxed accumulator %v (%v), want %v (%v)", i, gv, gok, wv, wok)
		}
	}
	if reflect.TypeOf(got.accs) != reflect.TypeOf(want.accs) {
		return fmt.Sprintf("accumulators in a %T, want a %T", got.accs, want.accs)
	}
	return ""
}

// TestFetchChecksCancel: a partition handed over in place still answers a
// cancelled job, once per partition, as the decode of a spilled one does.
func TestFetchChecksCancel(t *testing.T) {
	stop := errors.New("cancelled")
	b := NewBuffer(Config{Parts: 2, Size: testSize, Cancel: func() error { return stop }})
	defer b.Close()
	if err := b.Add(0, "k", int64(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Fetch(0, new(Records), new(Fetcher)); err != stop {
		t.Fatalf("Fetch of a resident partition = %v, want the cancellation", err)
	}
	if src, ways, err := b.Fetch(1, new(Records), new(Fetcher)); err != nil || ways != 0 || src.Hi != src.Lo {
		t.Fatalf("Fetch of an empty partition = %+v, %d, %v", src, ways, err)
	}
}
