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

// BenchmarkChainHandoff is the hand-off from a stage to an identity-mapped
// one, both ways: a map-only job passes 1 M rid-pair → Overlap records on
// to the verification job (SumOverlaps as combiner and folding reducer), as
// Run then Run of IdentityMapper over its Output ("run"), and as Feed then
// Chain ("chain"). Run it with -benchmem: the difference is the []KV and
// the boxes.
func BenchmarkChainHandoff(b *testing.B) {
	const n = 1_000_000
	rng := rand.New(rand.NewSource(1))
	in := make([]mapreduce.KV, n)
	for i := range in {
		p := uint32(rng.Intn(n / 2))
		in[i] = mapreduce.KV{Key: mapreduce.PairKey(p>>9, p&511), Value: result.Overlap{C: 1, La: 40, Lb: 44}}
	}
	produce := mapreduce.Config{Name: "produce", MemoryBudgetBytes: -1}
	verify := mapreduce.Config{Name: "verify", ReduceTasks: 30, MemoryBudgetBytes: -1, Combiner: result.SumOverlaps{}}
	for _, chain := range []bool{false, true} {
		name := "run"
		if chain {
			name = "chain"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := mapreduce.NewPipeline("handoff", mapreduce.DefaultCluster())
				var res *mapreduce.Result
				var err error
				if chain {
					var fed *mapreduce.Result
					if fed, err = p.Feed(produce, in, mapreduce.IdentityMapper, nil); err == nil {
						res, err = p.Chain(verify, fed, verifyReducer{})
					}
				} else {
					var ran *mapreduce.Result
					if ran, err = p.Run(produce, in, mapreduce.IdentityMapper, nil); err == nil {
						res, err = p.Run(verify, ran.Output, mapreduce.IdentityMapper, verifyReducer{})
					}
				}
				if err != nil {
					b.Fatal(err)
				}
				if res.Metrics.MapInputRecords != n {
					b.Fatalf("verified %d records", res.Metrics.MapInputRecords)
				}
			}
		})
	}
}
