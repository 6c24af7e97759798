package spill

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// sumTyped folds int64 counts, boxed and unboxed.
type sumTyped struct{}

func (sumTyped) Fold(acc, v any) any           { return acc.(int64) + v.(int64) }
func (sumTyped) FoldTyped(acc *int64, v int64) { *acc += v }

// mixedLengthKeys returns 161 distinct keys covering every way a key is
// stored: empty, inline at 4 and 8 bytes, in the side list at 9 and 20.
func mixedLengthKeys() []string {
	keys := []string{""}
	for i := 0; i < 40; i++ {
		for _, l := range []int{4, 8, 9, 20} {
			keys = append(keys, fmt.Sprintf("%0*d", l, i))
		}
	}
	return keys
}

// drainRecords replays every partition of b through DrainTo.
func drainRecords(t *testing.T, b *Buffer, parts int) (keys []string, vals []any, sizes []int64) {
	t.Helper()
	for p := 0; p < parts; p++ {
		var recs Records
		if _, err := b.DrainTo(p, &recs); err != nil {
			t.Fatal(err)
		}
		recs.Each(func(k string, v any, sz int64) bool {
			keys, vals, sizes = append(keys, k), append(vals, v), append(sizes, sz)
			return true
		})
	}
	return keys, vals, sizes
}

// TestTypedFoldMatchesBoxedFold: the same stream folded unboxed and boxed
// leaves identical accumulators, sizes and spill statistics — at emit in
// memory, re-folded by the k-way merge across runs, and folded per group on
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
	gt, err := recs.Group(f.Fold, f)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := recs.Group(f.Fold, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := gt.accs.(*column[int64]); !ok {
		t.Fatalf("accumulators are held in a %T, want the int64 column", gt.accs)
	}
	if !reflect.DeepEqual(gt.Keys, gb.Keys) || !reflect.DeepEqual(gt.Sizes, gb.Sizes) || !sort.StringsAreSorted(gt.Keys) {
		t.Fatalf("groups differ: %v %v / %v %v", gt.Keys, gt.Sizes, gb.Keys, gb.Sizes)
	}
	for g := range gt.Keys {
		if gt.Acc(g) != gb.Acc(g) {
			t.Fatalf("key %q: %v unboxed, %v boxed", gt.Keys[g], gt.Acc(g), gb.Acc(g))
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
		recs.Append("a-key-longer-than-eight-bytes", v, 10)
	}
	// A typed batch appended to a boxed one, and a boxed one to a typed.
	other.Append("u", uint32(1), 10)
	other.Append("v", uint32(2), 10)
	recs.appendAll(&other)
	want = append(want, uint32(1), uint32(2))
	var typed Records
	typed.Append("u", uint32(0), 10)
	typed.appendAll(&recs)
	var got []any
	var keys []string
	typed.Each(func(k string, v any, sz int64) bool {
		got, keys = append(got, v), append(keys, k)
		return sz == 10
	})
	if !reflect.DeepEqual(got[1:], want) || typed.Len() != len(want)+1 || typed.Bytes() != int64(10*typed.Len()) {
		t.Fatalf("read back %v (%d records, %d bytes), stored %v", got, typed.Len(), typed.Bytes(), want)
	}
	if wantKeys := "u k0 k1" + strings.Repeat(" a-key-longer-than-eight-bytes", 4) + " u v"; strings.Join(keys, " ") != wantKeys {
		t.Fatalf("keys %q, want %q", keys, wantKeys)
	}
}

// pointerful is registered, and holds a pointer: no []pointerful column.
type pointerful struct{ xs []int32 }

func init() {
	Register(tagTest+1, Codec[pointerful]{
		Append: func(buf []byte, v pointerful) []byte { return AppendI32s(buf, v.xs) },
		Read:   func(d *Dec) pointerful { return pointerful{xs: d.I32s()} },
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
	if b.Stats().Runs == 0 || b.pinnedMem != 0 {
		t.Fatalf("registered values did not spill: %+v, %d bytes pinned", b.Stats(), b.pinnedMem)
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
	if at, err := tab.findOrAdd(&recs, k, "key", math.MaxInt32-1); at != -1 || err != nil {
		t.Fatalf("position 2^31−2: %d, %v", at, err)
	}
	if tab.slots[slotHash(k, "key")&uint32(len(tab.slots)-1)].pos != math.MaxInt32 {
		t.Fatalf("slots %v do not hold position 2^31−2", tab.slots)
	}
	k = MakeKeyIndex("next", 0)
	_, err := tab.findOrAdd(&recs, k, "next", math.MaxInt32)
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
			got, err := recs.appendRecord([]byte("prefix"), i)
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
			buf, _ = typed.appendRecord(buf[:0], i)
		}
	}); n != 0 {
		t.Fatalf("%v allocations to encode %d int64 records from their column", n, len(keys))
	}
	var none Records
	none.Append("k", unregistered{n: 1}, 1)
	if got, err := none.appendRecord([]byte("as given"), 0); err == nil || string(got) != "as given" {
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
			if got, err := recs.appendRecord(nil, j); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s record %d: %x (%v) out of a %T, want %x", g.typ, j, got, err, recs.vals, want)
			}
		}
	}
}

// TestAddFromMatchesAdd: records added out of another Records' columns
// fold, spill, pin and drain exactly as the same records added boxed —
// between two columns of one type, across a typed and a boxed one, with
// values that have no codec, with and without a fold (unboxed or boxed), at
// every budget — and the source is left as it was.
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
					a := NewKeyArena(src.Len())
					for i := 0; i < src.Len(); i++ {
						k, v := src.At(i)
						if err := boxed.Add(len(k)%2, k, v); err != nil {
							t.Fatal(err)
						}
						if err := columns.AddFrom(len(k)%2, src.Key(i, a), &src, i); err != nil {
							t.Fatal(err)
						}
					}
					if boxed.Stats() != columns.Stats() || boxed.pinnedMem != columns.pinnedMem {
						t.Fatalf("stats %+v (%d pinned) added, %+v (%d pinned) from columns",
							boxed.Stats(), boxed.pinnedMem, columns.Stats(), columns.pinnedMem)
					}
					if budget == 512 && sname != "no codec" && boxed.Stats().Runs == 0 {
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
