package result_test

import (
	"testing"

	"fsjoin/internal/mapreduce"
	"fsjoin/internal/result"
	"fsjoin/internal/testutil"
)

type sumPairs struct{ result.SumOverlaps }

func (sumPairs) FinishFold(ctx *mapreduce.Context, key string, acc any) { ctx.Emit(key, acc) }

// TestSumOverlapsFoldsUnboxed: FoldTyped is Fold, in place.
func TestSumOverlapsFoldsUnboxed(t *testing.T) {
	var s result.SumOverlaps
	acc, boxed := result.Overlap{C: 1, La: 5, Lb: 7}, any(result.Overlap{C: 1, La: 5, Lb: 7})
	for c := int32(2); c < 6; c++ {
		v := result.Overlap{C: c, La: 5, Lb: 7}
		s.FoldTyped(&acc, v)
		boxed = s.Fold(boxed, v)
	}
	if want := (result.Overlap{C: 15, La: 5, Lb: 7}); acc != want || boxed != any(want) {
		t.Fatalf("unboxed %v, boxed %v, want %v", acc, boxed, want)
	}

	var input []mapreduce.KV
	for i := uint32(0); i < 2000; i++ {
		input = append(input, mapreduce.KV{
			Key:   mapreduce.PairKey(i%61, i%7),
			Value: result.Overlap{C: int32(i % 5), La: int32(i % 61), Lb: int32(i % 7)},
		})
	}
	testutil.AssertTypedFoldAgrees(t, input, sumPairs{})
}
