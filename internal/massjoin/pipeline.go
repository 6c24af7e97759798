package massjoin

import (
	"fmt"
	"sort"

	"fsjoin/internal/mapreduce"
	"fsjoin/internal/order"
	"fsjoin/internal/result"
	"fsjoin/internal/tokens"
)

// SelfJoin runs the four-job MassJoin pipeline: ordering, signatures →
// candidates, candidate distribution (records shipped to partners), and
// verification.
func SelfJoin(c *tokens.Collection, opt Options) (*Result, error) {
	if opt.Theta <= 0 || opt.Theta > 1 {
		return nil, fmt.Errorf("massjoin: theta %v outside (0, 1]", opt.Theta)
	}
	p := mapreduce.NewPipeline("massjoin-"+opt.Variant.String(), opt.Cluster)
	p.Parallelism = opt.Parallelism
	p.MemoryBudgetBytes = opt.MemoryBudget
	p.Env = opt.Env

	// Job 1: global ordering (token frequency).
	o, err := order.Compute(p, c)
	if err != nil {
		return nil, err
	}
	ordered, err := o.Apply(c)
	if err != nil {
		return nil, err
	}

	// Job 2: signatures → deduplicated candidate pairs (shorter rid is the
	// "indexed" side).
	sigRes, err := p.Feed(mapreduce.Config{Name: "signatures"},
		order.RecordsToKV(ordered),
		&sigMapper{opt: opt},
		&sigReducer{opt: opt})
	if err != nil {
		return nil, err
	}
	if dropped := sigRes.Counters.Get("massjoin.sig.dropped"); dropped > 0 {
		return nil, fmt.Errorf("%w (budget %d, dropped %d signatures)",
			ErrBudgetExceeded, opt.MaxSignatures, dropped)
	}
	candRes, err := p.Chain(mapreduce.Config{Name: "candidates"}, sigRes, mapreduce.FirstValue{})
	if err != nil {
		return nil, err
	}

	// Job 3 (Merge): group candidates by the indexed rid, attach that
	// record once, and ship it to every partner — the record-duplication
	// step the paper criticises.
	distIn := make([]mapreduce.KV, 0, len(candRes.Output)+len(ordered.Records))
	for _, rec := range ordered.Records {
		distIn = append(distIn, mapreduce.KV{
			Key:   mapreduce.U32Key(uint32(rec.RID)),
			Value: order.Routed{Rec: rec},
		})
	}
	for _, kv := range candRes.Output {
		a, b := mapreduce.DecodePairKey(kv.Key)
		// Route the candidate to the indexed side a; value is partner b.
		distIn = append(distIn, mapreduce.KV{Key: mapreduce.U32Key(a), Value: order.Routed{Rec: tokens.Record{RID: int32(b)}, Partner: true}})
	}
	distRes, err := p.Run(mapreduce.Config{Name: "distribute"},
		distIn, mapreduce.IdentityMapper,
		mapreduce.ReduceFunc(func(ctx *mapreduce.Context, key string, values []any) {
			rec, partners := order.Routes(values)
			if rec.Tokens == nil {
				return
			}
			for _, t := range partners {
				ctx.Inc("massjoin.records.shipped", 1)
				mapreduce.EmitU32(ctx, uint32(t), order.RecordValue{Rec: rec})
			}
		}))
	if err != nil {
		return nil, err
	}

	// Job 4: verification — each partner receives its own record plus all
	// shipped candidates and computes exact similarities.
	verifyIn := make([]mapreduce.KV, 0, len(distRes.Output)+len(ordered.Records))
	for _, rec := range ordered.Records {
		verifyIn = append(verifyIn, mapreduce.KV{
			Key:   mapreduce.U32Key(uint32(rec.RID)),
			Value: order.RecordValue{Rec: rec},
		})
	}
	verifyIn = append(verifyIn, distRes.Output...)
	verifyRes, err := p.Run(mapreduce.Config{Name: "verify"},
		verifyIn, mapreduce.IdentityMapper, &verifyReducer{opt: opt})
	if err != nil {
		return nil, err
	}

	return &Result{
		Pairs:      result.ScoredPairs(verifyRes.Output),
		Candidates: int64(len(candRes.Output)),
		Pipeline:   p,
	}, nil
}

// verifyReducer distinguishes the reducer's own record (matching rid) from
// shipped candidate records and verifies each candidate exactly.
type verifyReducer struct {
	opt Options
}

// Reduce implements mapreduce.Reducer.
func (r *verifyReducer) Reduce(ctx *mapreduce.Context, key string, values []any) {
	rid := int32(mapreduce.DecodeU32Key(key))
	var own tokens.Record
	var cands []tokens.Record
	for _, v := range values {
		p := v.(order.RecordValue).Rec
		if p.RID == rid {
			own = p
		} else {
			cands = append(cands, p)
		}
	}
	if own.Tokens == nil {
		return
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].RID < cands[j].RID })
	for _, cand := range cands {
		x, y := cand, own
		if x.RID > y.RID {
			x, y = y, x
		}
		result.Score(ctx, r.opt.Fn, r.opt.Theta, x, y, false)
	}
}
