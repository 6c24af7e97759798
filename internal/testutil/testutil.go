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
// tasks spill and the merge re-fold — twice: as given, so that the engine
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
