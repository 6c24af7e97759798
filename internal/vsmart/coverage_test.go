package vsmart

import (
	"testing"

	"fsjoin/internal/mapreduce"
)

// fakeCtxRun exercises the non-fold Reduce paths directly through a tiny
// job, covering the code a FoldingReducer-aware engine never calls.
func TestPlainReducePathsEquivalent(t *testing.T) {
	in := []mapreduce.KV{
		{Key: "p", Value: partial{c: 1, la: 4, lb: 5}},
		{Key: "p", Value: partial{c: 1, la: 4, lb: 5}},
		{Key: "p", Value: partial{c: 2, la: 4, lb: 5}},
	}
	// sumPartials.Reduce must equal folding through the engine.
	var direct []mapreduce.KV
	ctxRes, err := mapreduce.Run(mapreduce.Config{Name: "plain"},
		in, mapreduce.IdentityMapper,
		mapreduce.ReduceFunc(func(ctx *mapreduce.Context, key string, values []any) {
			sumPartials{}.Reduce(ctx, key, values)
		}))
	if err != nil {
		t.Fatal(err)
	}
	direct = ctxRes.Output
	if len(direct) != 1 || direct[0].Value.(partial).c != 4 {
		t.Fatalf("plain sum = %v", direct)
	}

	// thresholdReducer.Reduce: 4 of {4,5} → Jaccard 4/5 = 0.8.
	res, err := mapreduce.Run(mapreduce.Config{Name: "thr"},
		in, mapreduce.IdentityMapper,
		mapreduce.ReduceFunc(func(ctx *mapreduce.Context, key string, values []any) {
			(&thresholdReducer{fn: 0, theta: 0.8}).Reduce(ctx, key, values)
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
			(&thresholdReducer{fn: 0, theta: 0.81}).Reduce(ctx, key, values)
		}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Output) != 0 {
		t.Fatalf("above-threshold output = %v", res2.Output)
	}
}

func TestPostingSizes(t *testing.T) {
	if (posting{}).SizeBytes() != 9 || (partial{}).SizeBytes() != 12 {
		t.Fatal("wire sizes changed")
	}
}
