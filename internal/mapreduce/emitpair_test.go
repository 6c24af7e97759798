package mapreduce_test

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"fsjoin/internal/fragjoin"
	"fsjoin/internal/mapreduce"
	"fsjoin/internal/result"
	"fsjoin/internal/spill"
	"fsjoin/internal/tokens"
)

// step is one emission made two ways: through EmitPair, and through Emit of
// the key PairKey builds. A step that is not a pair is Emit both ways.
type step struct{ typed, boxed func(ctx *mapreduce.Context) }

func pair[T any](a, b uint32, v T) step {
	return step{
		typed: func(ctx *mapreduce.Context) { mapreduce.EmitPair(ctx, a, b, v) },
		boxed: func(ctx *mapreduce.Context) { ctx.Emit(mapreduce.PairKey(a, b), v) },
	}
}

func u32[T any](x uint32, v T) step {
	return step{
		typed: func(ctx *mapreduce.Context) { mapreduce.EmitU32(ctx, x, v) },
		boxed: func(ctx *mapreduce.Context) { ctx.Emit(mapreduce.U32Key(x), v) },
	}
}

func keyed(key string, v any) step {
	emit := func(ctx *mapreduce.Context) { ctx.Emit(key, v) }
	return step{emit, emit}
}

// pairs is n pair emissions, the i-th of value v(i).
func pairs[T any](n int, v func(i int) T) []step {
	s := make([]step, n)
	for i := range s {
		s[i] = pair(uint32(i%61), uint32(i*7919), v(i))
	}
	return s
}

// u32s is n U32Key emissions, the i-th of value v(i).
func u32s[T any](n int, v func(i int) T) []step {
	s := make([]step, n)
	for i := range s {
		s[i] = u32(uint32(i*7919), v(i))
	}
	return s
}

// unregistered is a pointer-free pair value with no codec.
type unregistered struct{ A, B int32 }

func overlapAt(i int) result.Overlap {
	return result.Overlap{C: int32(i % 9), La: int32(i), Lb: int32(i + 3)}
}

// TestEmitPairMatchesEmit fills one task's output through EmitPair and
// EmitU32 and another's through Emit(PairKey(a, b), v) and Emit(U32Key(x),
// v), step for step — a reduce task's output, or a map task's partitions
// — and demands the
// same records: count, accounted bytes in total and per record, key and
// value, wire frame, and the kind of column they end up in — whether the
// typed path took them or the values had to be boxed.
func TestEmitPairMatchesEmit(t *testing.T) {
	const n = 300 // past the first few chunks
	count := func(i int) int64 { return int64(i) << 20 }
	seg := func(i int) fragjoin.Seg {
		return fragjoin.Seg{RID: int32(i), StrLen: 9, Head: 2, Tail: 4, Tokens: []tokens.ID{tokens.ID(i), tokens.ID(i + 1)}}
	}
	const oddKey = "1234567" // neither a U32Key's length nor a PairKey's
	for _, row := range []struct {
		name  string
		steps []step
		// column is in the name of the column kind every output ends as.
		column string
		// reducers > 0 emits from a map task that shuffles to that many.
		reducers int
	}{
		{"overlap", pairs(n, overlapAt), "result.Overlap", 0},
		{"int64", pairs(n, count), "int64", 0},
		{"candidate", pairs(n, func(int) result.Candidate { return result.Candidate{} }), "result.Candidate", 0},
		{"scored", pairs(n, func(i int) result.Scored { return result.Scored{C: int32(i), Sim: float64(i) / 7} }), "result.Scored", 0},
		{"seg", pairs(n, seg), "tailed[fsjoin/internal/fragjoin.Seg,", 0},
		{"unregistered", pairs(n, func(i int) unregistered { return unregistered{int32(i), 1} }), "interface {}", 0},
		{"overlap-then-int64", slices.Concat(pairs(50, overlapAt), pairs(50, count), pairs(50, overlapAt)), "interface {}", 0},
		{"int64-then-overlap", slices.Concat(pairs(50, count), pairs(50, overlapAt), pairs(50, count)), "interface {}", 0},
		{"short-key-before", slices.Concat([]step{keyed(mapreduce.U32Key(5), overlapAt(0))}, pairs(n, overlapAt)), "result.Overlap", 0},
		{"7-byte-key-before", slices.Concat([]step{keyed(oddKey, overlapAt(0))}, pairs(n, overlapAt)), "result.Overlap", 0},
		{"7-byte-key-after", slices.Concat(pairs(50, overlapAt), []step{keyed(oddKey, overlapAt(1))}, pairs(50, overlapAt)), "result.Overlap", 0},
		{"map-task", pairs(n, overlapAt), "result.Overlap", 7},
		{"u32", u32s(n, count), "int64", 0},
		{"u32-then-pairs", slices.Concat(u32s(50, count), pairs(50, count)), "int64", 0},
		{"map-task-u32", u32s(n, count), "int64", 7},
		{"map-task-seg", pairs(n, seg), "tailed[fsjoin/internal/fragjoin.Seg,", 7},
		{"map-task-mixed", slices.Concat(u32s(50, count), pairs(50, overlapAt), u32s(50, count)), "", 7},
		{"map-task-7-byte-key", slices.Concat(pairs(50, count), []step{keyed(oddKey, count(1))}, u32s(50, count)), "int64", 3},
	} {
		t.Run(row.name, func(t *testing.T) {
			emitted := func(typed bool) []*spill.Records {
				ctx := new(mapreduce.Context)
				if row.reducers > 0 {
					ctx = mapreduce.NewMapContext(row.reducers)
				}
				for _, s := range row.steps {
					if typed {
						s.typed(ctx)
					} else {
						s.boxed(ctx)
					}
				}
				recs, err := mapreduce.Emitted(ctx)
				if err != nil {
					t.Fatal(err)
				}
				return recs
			}
			got, want := emitted(true), emitted(false)
			for p := range want {
				sameRecords(t, got[p], want[p])
				if col := got[p].Column(); got[p].Len() > 0 && !strings.Contains(col, row.column) {
					t.Errorf("partition %d: values held in a %s, want one of %s", p, col, row.column)
				}
			}
		})
	}

	// The typed path does fire: into a column already of the value's type a
	// pair costs neither a box nor a key string.
	ctx := new(mapreduce.Context)
	mapreduce.EmitPair(ctx, 1, 2, overlapAt(1)) // the first value picks the column
	if a := testing.AllocsPerRun(1000, func() { mapreduce.EmitPair(ctx, 1, 2, overlapAt(1)) }); a != 0 {
		t.Fatalf("EmitPair into an Overlap column allocated %v times a record", a)
	}
	// Nor does a segment into its tailed column, its tokens copied.
	ctx = new(mapreduce.Context)
	mapreduce.EmitPair(ctx, 1, 2, seg(1))
	s := seg(2)
	if a := testing.AllocsPerRun(1000, func() { mapreduce.EmitPair(ctx, 1, 2, s) }); a != 0 {
		t.Fatalf("EmitPair into a Seg column allocated %v times a record", a)
	}
}

// sameRecords fails t unless got holds what want does, record for record.
func sameRecords(t *testing.T, got, want *spill.Records) {
	t.Helper()
	if got.Len() != want.Len() || got.Bytes() != want.Bytes() {
		t.Fatalf("%d records of %d bytes, want %d of %d", got.Len(), got.Bytes(), want.Len(), want.Bytes())
	}
	if got.Column() != want.Column() {
		t.Fatalf("values held in a %s, want a %s", got.Column(), want.Column())
	}
	sizes := func(r *spill.Records) (s []int64) {
		r.Each(func(_ string, _ any, bytes int64) bool { s = append(s, bytes); return true })
		return s
	}
	gs, ws := sizes(got), sizes(want)
	for i := 0; i < want.Len(); i++ {
		gk, gv := got.At(i)
		wk, wv := want.At(i)
		if gk != wk || !reflect.DeepEqual(gv, wv) || gs[i] != ws[i] {
			t.Fatalf("record %d: %x → %#v (%d bytes), want %x → %#v (%d bytes)", i, gk, gv, gs[i], wk, wv, ws[i])
		}
		gf, gerr := got.Frame(nil, i)
		wf, werr := want.Frame(nil, i)
		if !bytes.Equal(gf, wf) || fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("record %d framed as %x (%v), want %x (%v)", i, gf, gerr, wf, werr)
		}
	}
}

// BenchmarkPairEmit is one partial count leaving a reducer: Emit of the key
// PairKey builds and a boxed Overlap, against EmitPair of the Overlap, into
// a reduce task's output, a new one every 65 536 records. Allocs/op is the
// point: two for Emit, none for EmitPair.
func BenchmarkPairEmit(b *testing.B) {
	for _, arm := range []struct {
		name string
		emit func(ctx *mapreduce.Context, a, b uint32, v result.Overlap)
	}{
		{"emit", func(ctx *mapreduce.Context, a, b uint32, v result.Overlap) { ctx.Emit(mapreduce.PairKey(a, b), v) }},
		{"emit-pair", mapreduce.EmitPair[result.Overlap]},
	} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			var ctx *mapreduce.Context
			for i := 0; i < b.N; i++ {
				if i%(1<<16) == 0 {
					ctx = new(mapreduce.Context)
				}
				arm.emit(ctx, uint32(i>>10), uint32(i), result.Overlap{C: 1, La: 40, Lb: 44})
			}
		})
	}
}
