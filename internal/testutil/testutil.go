// Package testutil provides shared helpers for the correctness tests:
// deterministic random collections with frequent overlaps (so joins return
// non-trivial results) and a small cluster model to keep task counts low.
package testutil

import (
	"math/rand"
	"reflect"
	"testing"

	"fsjoin/internal/mapreduce"
	"fsjoin/internal/result"
	"fsjoin/internal/spill"
	"fsjoin/internal/tokens"
)

// RandomCollection builds n records over a vocab-sized token domain with
// lengths in [1, maxLen]; about a third of the records are near-duplicates
// of earlier ones so that similarity joins produce results.
func RandomCollection(n, vocab, maxLen int, seed int64) *tokens.Collection {
	rng := rand.New(rand.NewSource(seed))
	c := &tokens.Collection{}
	for i := 0; i < n; i++ {
		if i > 0 && rng.Intn(3) == 0 {
			base := c.Records[rng.Intn(i)]
			ids := append([]tokens.ID{}, base.Tokens...)
			if len(ids) > 1 && rng.Intn(2) == 0 {
				ids = ids[:len(ids)-1]
			}
			ids = append(ids, tokens.ID(rng.Intn(vocab)))
			c.Records = append(c.Records, tokens.NewRecord(int32(i), ids))
			continue
		}
		l := rng.Intn(maxLen) + 1
		ids := make([]tokens.ID, l)
		for j := range ids {
			ids[j] = tokens.ID(rng.Intn(vocab))
		}
		c.Records = append(c.Records, tokens.NewRecord(int32(i), ids))
	}
	return c
}

// SmallCluster returns a 3-node cost model to keep per-job task counts low
// in tests.
func SmallCluster() *mapreduce.Cluster {
	cl := mapreduce.DefaultCluster()
	cl.Nodes = 3
	return cl
}

// AssertSameResults fails the test when got differs from the oracle's want
// (both need not be pre-sorted).
func AssertSameResults(t *testing.T, label string, got, want []result.Pair) {
	t.Helper()
	g := append([]result.Pair{}, got...)
	w := append([]result.Pair{}, want...)
	result.Sort(g)
	result.Sort(w)
	if diffs := result.Diff(g, w, 10); len(diffs) != 0 {
		t.Errorf("%s: got %d results, oracle %d; diffs:", label, len(g), len(w))
		for _, d := range diffs {
			t.Errorf("  %s", d)
		}
	}
}

// boxedOnly is a folding reducer with whatever unboxed fold it offers
// hidden: only the FoldingReducer methods are promoted.
type boxedOnly struct{ mapreduce.FoldingReducer }

// AssertTypedFoldAgrees runs an identity job over input with fr as combiner
// and folding reducer — unbounded, and under a budget that makes the map
// tasks spill and the reduce-side fetch re-fold — twice: as given, so that the engine
// folds through the unboxed form fr offers (FoldTyped or KeepsFirst), and
// with that form hidden. Output, counters and the shuffle's metrics must
// not tell the two apart.
func AssertTypedFoldAgrees(t *testing.T, input []mapreduce.KV, fr mapreduce.FoldingReducer) {
	t.Helper()
	for _, budget := range []int64{-1, 512} {
		run := func(fr mapreduce.FoldingReducer) *mapreduce.Result {
			cfg := mapreduce.Config{Cluster: SmallCluster(), MapTasks: 4, ReduceTasks: 3,
				MemoryBudgetBytes: budget, SpillDir: t.TempDir(), Combiner: fr}
			res, err := mapreduce.Run(cfg, input, mapreduce.IdentityMapper, fr)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		typed, boxed := run(fr), run(boxedOnly{fr})
		if !reflect.DeepEqual(typed.Output, boxed.Output) {
			t.Fatalf("budget %d: output differs:\nunboxed %v\nboxed   %v", budget, typed.Output, boxed.Output)
		}
		if ct, cb := typed.Counters.Snapshot(), boxed.Counters.Snapshot(); !reflect.DeepEqual(ct, cb) {
			t.Fatalf("budget %d: counters differ:\nunboxed %v\nboxed   %v", budget, ct, cb)
		}
		mt, mb := typed.Metrics, boxed.Metrics
		if mt.ShuffleRecords != mb.ShuffleRecords || mt.ShuffleBytes != mb.ShuffleBytes ||
			mt.SpillRuns != mb.SpillRuns || mt.SpillBytes != mb.SpillBytes || mt.ShufflePeakBytes != mb.ShufflePeakBytes ||
			!reflect.DeepEqual(mt.PerReduceBytes, mb.PerReduceBytes) || (budget > 0 && mt.SpillRuns == 0) {
			t.Fatalf("budget %d: metrics differ:\nunboxed %+v\nboxed   %+v", budget, mt, mb)
		}
		if len(typed.Output) == 0 || int64(len(typed.Output)) == mt.ShuffleRecords {
			t.Fatalf("budget %d: %d records folded into %d: nothing was folded on the reduce side", budget, mt.ShuffleRecords, len(typed.Output))
		}
	}
}

// typedFinishFold is a threshold reducer over Overlap sums with its
// FinishGroup hidden and its unboxed fold kept: typed groups, FinishFold.
type typedFinishFold struct{ mapreduce.FoldingReducer }

func (r typedFinishFold) FoldTyped(acc *result.Overlap, v result.Overlap) {
	r.FoldingReducer.(mapreduce.TypedFolder[result.Overlap]).FoldTyped(acc, v)
}

// boxedFinishGroup is one with its unboxed fold hidden and its FinishGroup
// kept: boxed groups, FinishGroup.
type boxedFinishGroup struct{ mapreduce.FoldingReducer }

func (r boxedFinishGroup) FinishGroup(ctx *mapreduce.Context, g *spill.Groups, i int) {
	r.FoldingReducer.(mapreduce.GroupFinisher).FinishGroup(ctx, g, i)
}

// AssertFinishGroupAgrees runs a verification job — pair keys to partial
// Overlap counts, summed by a combiner, then by fr — four ways:
// the reduce side's groups folded unboxed and boxed, each finished by fr's
// FinishGroup and by its FinishFold. Output and counters must not tell them
// apart, and fr must keep some pairs and drop others.
func AssertFinishGroupAgrees(t *testing.T, fr mapreduce.FoldingReducer) {
	t.Helper()
	if _, ok := fr.(mapreduce.GroupFinisher); !ok {
		t.Fatalf("%T has no FinishGroup", fr)
	}
	// 600 pairs of records 6 to 17 tokens long, with one to four partial
	// counts each.
	var input []mapreduce.KV
	for i := uint32(0); i < 1500; i++ {
		p := i % 600
		input = append(input, mapreduce.KV{
			Key:   mapreduce.PairKey(p/30, 100+p%30),
			Value: result.Overlap{C: int32(1 + i%3), La: int32(6 + p%12), Lb: int32(6 + p%7)},
		})
	}
	for _, budget := range []int64{-1, 512} {
		var want *mapreduce.Result
		for _, arm := range []struct {
			name string
			r    mapreduce.FoldingReducer
		}{{"typed, FinishGroup", fr}, {"typed, FinishFold", typedFinishFold{fr}},
			{"boxed, FinishGroup", boxedFinishGroup{fr}}, {"boxed, FinishFold", boxedOnly{fr}}} {
			cfg := mapreduce.Config{Cluster: SmallCluster(), MapTasks: 4, ReduceTasks: 3,
				MemoryBudgetBytes: budget, SpillDir: t.TempDir(), Combiner: result.SumOverlaps{}}
			res, err := mapreduce.Run(cfg, input, mapreduce.IdentityMapper, arm.r)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = res
				if n := len(res.Output); n == 0 || int64(n) == res.Metrics.ReduceInputGroups {
					t.Fatalf("budget %d: %d of %d pairs kept: the threshold decides nothing", budget, n, res.Metrics.ReduceInputGroups)
				}
				continue
			}
			if !reflect.DeepEqual(res.Output, want.Output) {
				t.Fatalf("budget %d, %s: output differs:\n%v\nwant %v", budget, arm.name, res.Output, want.Output)
			}
			if got, w := res.Counters.Snapshot(), want.Counters.Snapshot(); !reflect.DeepEqual(got, w) {
				t.Fatalf("budget %d, %s: counters %v, want %v", budget, arm.name, got, w)
			}
		}
	}
}
