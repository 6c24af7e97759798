package mapreduce_test

import (
	"math/rand"
	"testing"

	"fsjoin/internal/mapreduce"
	"fsjoin/internal/result"
)

// verifyReducer is the verification job's reducer in shape: it sums a
// pair's partial overlaps through the fold fast path and emits the pair.
type verifyReducer struct{ result.SumOverlaps }

func (verifyReducer) FinishFold(ctx *mapreduce.Context, key string, acc any) { ctx.Emit(key, acc) }

// BenchmarkVerificationShuffle is the verification job (Section V-B) with
// nothing but the shuffle in it: rid-pair keys to partial overlap counts,
// 2.1 partials per pair spread over the map tasks, an identity mapper,
// SumOverlaps as combiner and as folding reducer, 30 reducers. Run it with
// -benchmem: bytes and allocations per op are the record path's.
func BenchmarkVerificationShuffle(b *testing.B) {
	const n = 480_000
	rng := rand.New(rand.NewSource(1))
	in := make([]mapreduce.KV, n)
	for i := range in {
		p := uint32(rng.Intn(n * 10 / 21))
		in[i] = mapreduce.KV{Key: mapreduce.PairKey(p>>9, p&511), Value: result.Overlap{C: 1, La: 40, Lb: 44}}
	}
	cfg := mapreduce.Config{Cluster: mapreduce.DefaultCluster(), ReduceTasks: 30, MemoryBudgetBytes: -1, Combiner: result.SumOverlaps{}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := mapreduce.Run(cfg, in, mapreduce.IdentityMapper, verifyReducer{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Metrics.ShuffleRecords == 0 || res.Metrics.OutputRecords == 0 {
			b.Fatalf("shuffled %d records into %d pairs", res.Metrics.ShuffleRecords, res.Metrics.OutputRecords)
		}
	}
	b.SetBytes(n * 28)
}
