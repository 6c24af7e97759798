package spill_test

import (
	"testing"

	"fsjoin/internal/mapreduce"
	"fsjoin/internal/result"
	"fsjoin/internal/spill"
)

// TestAddFromAllocatesNothing: moving a verification record — rid-pair
// key, Overlap value — out of one Records into a buffer allocates nothing
// per record in steady state, whether it is appended (a chunk per 1 024
// records is all, which AllocsPerRun's per-run average rounds away) or
// folded into its key's accumulator. A value boxed on the way would be one
// allocation per record.
func TestAddFromAllocatesNothing(t *testing.T) {
	const n = 1 << 12
	var src spill.Records
	keys := make([]string, n)
	for i := range keys {
		keys[i] = mapreduce.PairKey(uint32(i), uint32(i+1))
		src.Append(keys[i], result.Overlap{C: 1, La: 40, Lb: 44}, 28)
	}
	size := func(key string, _ any) int64 { return int64(len(key) + 20) }
	for _, fold := range []bool{false, true} {
		cfg := spill.Config{Parts: 1, Size: size}
		if fold {
			cfg.Fold, cfg.TypedFold = result.SumOverlaps{}.Fold, result.SumOverlaps{}
		}
		b := spill.NewBuffer(cfg)
		// Folding, the first pass books every key and each later one folds.
		i := 0
		add := func() {
			if err := b.AddFrom(0, keys[i%n], &src, i%n); err != nil {
				t.Fatal(err)
			}
			i++
		}
		for i < n {
			add()
		}
		if allocs := testing.AllocsPerRun(10*n, add); allocs != 0 {
			t.Errorf("fold=%v: %v allocations per AddFrom", fold, allocs)
		}
		b.Close()
	}
}
