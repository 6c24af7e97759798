package vsmart

import (
	"testing"

	"fsjoin/internal/mapreduce"
	"fsjoin/internal/result"
	"fsjoin/internal/rsinput"
	"fsjoin/internal/spill"
)

// fakeCtxRun exercises the non-fold Reduce paths directly through a tiny
// job, covering the code a FoldingReducer-aware engine never calls.
func TestPlainReducePathsEquivalent(t *testing.T) {
	in := []mapreduce.KV{
		{Key: "p", Value: result.Overlap{C: 1, La: 4, Lb: 5}},
		{Key: "p", Value: result.Overlap{C: 1, La: 4, Lb: 5}},
		{Key: "p", Value: result.Overlap{C: 2, La: 4, Lb: 5}},
	}
	// SumOverlaps.Reduce must equal folding through the engine.
	var direct []mapreduce.KV
	ctxRes, err := mapreduce.Run(mapreduce.Config{Name: "plain"},
		in, mapreduce.IdentityMapper,
		mapreduce.ReduceFunc(func(ctx *mapreduce.Context, key string, values []any) {
			result.SumOverlaps{}.Reduce(ctx, key, values)
		}))
	if err != nil {
		t.Fatal(err)
	}
	direct = ctxRes.Output
	if len(direct) != 1 || direct[0].Value.(result.Overlap).C != 4 {
		t.Fatalf("plain sum = %v", direct)
	}

	// result.Verifier.Reduce: 4 of {4,5} → Jaccard 4/5 = 0.8.
	res, err := mapreduce.Run(mapreduce.Config{Name: "thr"},
		in, mapreduce.IdentityMapper,
		mapreduce.ReduceFunc(func(ctx *mapreduce.Context, key string, values []any) {
			(&result.Verifier{Fn: 0, Theta: 0.8}).Reduce(ctx, key, values)
		}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 1 {
		t.Fatalf("threshold output = %v", res.Output)
	}
	res2, err := mapreduce.Run(mapreduce.Config{Name: "thr2"},
		in, mapreduce.IdentityMapper,
		mapreduce.ReduceFunc(func(ctx *mapreduce.Context, key string, values []any) {
			(&result.Verifier{Fn: 0, Theta: 0.81}).Reduce(ctx, key, values)
		}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Output) != 0 {
		t.Fatalf("above-threshold output = %v", res2.Output)
	}
}

// TestPostingSizes: V-SMART's two shuffle values are accounted at their
// registered sizes — a posting at 9 bytes, an overlap partial at 12.
func TestPostingSizes(t *testing.T) {
	var s spill.Sizer
	if s.Size(rsinput.Posting{}) != 9 || s.Size(result.Overlap{}) != 12 {
		t.Fatal("wire sizes changed")
	}
}
