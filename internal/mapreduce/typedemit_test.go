package mapreduce

import (
	"fmt"
	"reflect"
	"testing"
)

// typedEmitter emits, per input record i, a U32Key and a PairKey record of
// int64 counts, through EmitU32 and EmitPair when typed and through Emit
// of the keys they stand for when not.
type typedEmitter struct{ typed bool }

func (m typedEmitter) Map(ctx *Context, kv KV) {
	i := kv.Value.(int64)
	if m.typed {
		EmitU32(ctx, uint32(i%97), i)
		EmitPair(ctx, uint32(i%13), uint32(i%5), i<<20)
		return
	}
	ctx.Emit(U32Key(uint32(i%97)), i)
	ctx.Emit(PairKey(uint32(i%13), uint32(i%5)), i<<20)
}

// TestTypedEmitMatchesEmit runs a job whose map tasks emit through
// EmitU32 and EmitPair against the same job emitting through Emit — with
// no combiner, one that folds unboxed and one that folds only boxed, in
// memory and spilling, under the default and a custom partitioner — and
// demands the same output, counters and shuffle metrics.
func TestTypedEmitMatchesEmit(t *testing.T) {
	input := make([]KV, 3000)
	for i := range input {
		input[i] = KV{Key: U32Key(uint32(i)), Value: int64(i)}
	}
	custom := func(key uint64, reducers int) int { return int((key>>32 ^ key) % uint64(reducers)) }
	for _, combiner := range []Folder{nil, groupSum{}, foldSum{}} {
		for _, budget := range []int64{-1, 512} {
			for _, part := range []func(uint64, int) int{nil, custom} {
				name := fmt.Sprintf("combiner %T, budget %d, custom partitioner %v", combiner, budget, part != nil)
				run := func(typed bool) *Result {
					cfg := Config{Cluster: tinyCluster(), MapTasks: 3, ReduceTasks: 5, Combiner: combiner,
						MemoryBudgetBytes: budget, SpillDir: t.TempDir(), Partitioner: part}
					res, err := Run(cfg, input, typedEmitter{typed}, groupSum{})
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				got, want := run(true), run(false)
				if !reflect.DeepEqual(got.Output, want.Output) {
					t.Fatalf("%s: output differs", name)
				}
				if g, w := got.Counters.Snapshot(), want.Counters.Snapshot(); !reflect.DeepEqual(g, w) {
					t.Fatalf("%s: counters %v, want %v", name, g, w)
				}
				gm, wm := got.Metrics, want.Metrics
				if gm.ShuffleRecords != wm.ShuffleRecords || gm.ShuffleBytes != wm.ShuffleBytes ||
					!reflect.DeepEqual(gm.PerReduceBytes, wm.PerReduceBytes) || gm.SpillRuns != wm.SpillRuns ||
					gm.SpillBytes != wm.SpillBytes || gm.ShufflePeakBytes != wm.ShufflePeakBytes {
					t.Fatalf("%s: metrics\n%+v\nwant\n%+v", name, gm, wm)
				}
				if budget > 0 && gm.SpillRuns == 0 {
					t.Fatalf("%s: nothing spilled", name)
				}
			}
		}
	}
}
