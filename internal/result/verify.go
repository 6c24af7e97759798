package result

import (
	"fsjoin/internal/filters"
	"fsjoin/internal/mapreduce"
	"fsjoin/internal/similarity"
	"fsjoin/internal/spill"
	"fsjoin/internal/tokens"
)

// Verifier is the final reduce of every join that counts common tokens per
// candidate pair (FS-Join's verification, Section V-B, and V-Smart-Join's
// similarity phase): it sums a pair's partial counts and applies the
// threshold algebraically, on the engine's fold fast path. Every pair it
// examines counts as filters.CtrVerifyCandidates; with RS set it also feeds
// the rs.pairs.* counters surfaced through fsjoin.Stats.
type Verifier struct {
	SumOverlaps
	Fn    similarity.Func
	Theta float64
	RS    bool
}

// Reduce implements mapreduce.Reducer.
func (r *Verifier) Reduce(ctx *mapreduce.Context, key string, values []any) {
	acc := values[0]
	for _, v := range values[1:] {
		acc = r.Fold(acc, v)
	}
	r.FinishFold(ctx, key, acc)
}

// FinishFold implements mapreduce.FoldingReducer.
func (r *Verifier) FinishFold(ctx *mapreduce.Context, key string, acc any) {
	if sum := acc.(Overlap); r.keep(ctx, sum) {
		ctx.Emit(key, sum)
	}
}

// FinishGroup implements mapreduce.GroupFinisher: FinishFold of a pair's
// group without its key string or a boxed accumulator.
func (r *Verifier) FinishGroup(ctx *mapreduce.Context, g *spill.Groups, i int) {
	if a, b, sum := OverlapGroup(g, i); r.keep(ctx, sum) {
		mapreduce.EmitPair(ctx, a, b, sum)
	}
}

// keep counts one aggregated candidate pair and reports whether it meets
// the threshold.
func (r *Verifier) keep(ctx *mapreduce.Context, sum Overlap) bool {
	ctx.Inc(filters.CtrVerifyCandidates, 1)
	if r.RS {
		ctx.Inc(CtrRSCandidates, 1)
	}
	if !r.Fn.AtLeast(int(sum.C), int(sum.La), int(sum.Lb), r.Theta) {
		return false
	}
	if r.RS {
		ctx.Inc(CtrRSEmitted, 1)
	}
	return true
}

// Score verifies one candidate pair exactly, with both records at hand (the
// final reduce of MassJoin and ApproxLSHJoin): it counts the pair as
// filters.CtrVerifyCandidates (and, with rs set, as CtrRSCandidates),
// intersects the two token sets and, when the pair meets theta, emits
// (x.RID, y.RID) with its Scored payload (counting CtrRSEmitted when rs).
func Score(ctx *mapreduce.Context, fn similarity.Func, theta float64, x, y tokens.Record, rs bool) {
	ctx.Inc(filters.CtrVerifyCandidates, 1)
	if rs {
		ctx.Inc(CtrRSCandidates, 1)
	}
	c := tokens.Intersect(x.Tokens, y.Tokens)
	if !fn.AtLeast(c, x.Len(), y.Len(), theta) {
		return
	}
	if rs {
		ctx.Inc(CtrRSEmitted, 1)
	}
	mapreduce.EmitPair(ctx, uint32(x.RID), uint32(y.RID),
		Scored{C: int32(c), Sim: fn.Sim(c, x.Len(), y.Len())})
}
