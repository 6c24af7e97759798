// Package vsmart implements the V-Smart-Join baseline (Metwally &
// Faloutsos, VLDB 2012) in its Online-Aggregation variant, as described in
// the paper's related work: the Join phase emits every token of every
// record (building, in effect, a distributed inverted index) and enumerates
// all record pairs inside each token's posting list; the Similarity phase
// aggregates the per-token partial counts and applies the threshold. No
// filtering is performed before the final aggregation — the drawback the
// paper highlights.
package vsmart

import (
	"errors"
	"fmt"
	"sync/atomic"

	"fsjoin/internal/mapreduce"
	"fsjoin/internal/order"
	"fsjoin/internal/result"
	"fsjoin/internal/rsinput"
	"fsjoin/internal/similarity"
	"fsjoin/internal/tokens"
)

// ErrBudgetExceeded reports that the pairwise enumeration exceeded
// Options.MaxPairEmits — the in-process stand-in for the paper's
// observation that V-Smart-Join "cannot run completely" on larger datasets.
var ErrBudgetExceeded = errors.New("vsmart: pair-enumeration budget exceeded")

// Options configures a V-Smart-Join run.
type Options struct {
	// Fn and Theta define the similarity predicate.
	Fn    similarity.Func
	Theta float64
	// Cluster is the cost model (default: the paper's 10-node cluster).
	Cluster *mapreduce.Cluster
	// MaxPairEmits caps the number of (pair, partial) records the Join
	// phase may emit; 0 means unlimited. When exceeded, SelfJoin returns
	// ErrBudgetExceeded, mirroring the runs the paper reports as failures.
	MaxPairEmits int64
	// Parallelism is the local engine parallelism for every stage; see
	// mapreduce.Config.Parallelism.
	Parallelism int
	// MemoryBudget is mapreduce.Config.MemoryBudgetBytes for every stage.
	MemoryBudget int64
	// Env is the execution environment (cancellation, fault policy, spill
	// and checkpoint directories) handed to the pipeline as is; see
	// mapreduce.Env.
	Env mapreduce.Env
}

// Result carries the join output and pipeline metrics.
type Result struct {
	// Pairs are the similar pairs, sorted canonically.
	Pairs []result.Pair
	// Pipeline exposes per-stage metrics.
	Pipeline *mapreduce.Pipeline
}

// SelfJoin runs the two-phase Online-Aggregation pipeline.
func SelfJoin(c *tokens.Collection, opt Options) (*Result, error) {
	return run(c, nil, opt)
}

// Join runs the R-S variant: only cross-relation pairs are enumerated and
// result pairs carry the R-side id first. R and S rid spaces may overlap.
func Join(r, s *tokens.Collection, opt Options) (*Result, error) {
	if s == nil {
		return nil, errors.New("vsmart: nil S collection")
	}
	return run(r, s, opt)
}

func run(r, s *tokens.Collection, opt Options) (*Result, error) {
	if opt.Theta <= 0 || opt.Theta > 1 {
		return nil, fmt.Errorf("vsmart: theta %v outside (0, 1]", opt.Theta)
	}
	rs := s != nil
	p := mapreduce.NewPipeline("v-smart-join", opt.Cluster)
	p.Parallelism = opt.Parallelism
	p.MemoryBudgetBytes = opt.MemoryBudget
	p.Env = opt.Env

	// Ordering is not required for correctness here, but running the same
	// frequency job keeps the end-to-end comparison fair across methods.
	o, err := order.Compute(p, rsinput.Union(r, s))
	if err != nil {
		return nil, err
	}
	input, err := rsinput.Ordered(o, r, s)
	if err != nil {
		return nil, err
	}

	// Join phase: emit every token, enumerate pairs per posting list.
	joinRes, err := p.Feed(mapreduce.Config{Name: "join"},
		input,
		mapreduce.MapFunc(func(ctx *mapreduce.Context, kv mapreduce.KV) {
			tr := kv.Value.(rsinput.Record)
			for _, t := range tr.Rec.Tokens {
				ctx.Emit(mapreduce.U32Key(t),
					rsinput.Posting{RID: tr.Rec.RID, Len: int32(tr.Rec.Len()), Origin: tr.Origin})
			}
		}),
		&pairEnumerator{budget: opt.MaxPairEmits, rs: rs})
	if err != nil {
		return nil, err
	}
	if dropped := joinRes.Counters.Get("vsmart.pair.dropped"); dropped > 0 {
		return nil, fmt.Errorf("%w (budget %d, dropped %d partials)",
			ErrBudgetExceeded, opt.MaxPairEmits, dropped)
	}

	// Similarity phase: aggregate counts per pair, apply the threshold.
	simRes, err := p.Chain(mapreduce.Config{Name: "similarity", Combiner: result.SumOverlaps{}},
		joinRes, &result.Verifier{Fn: opt.Fn, Theta: opt.Theta, RS: rs})
	if err != nil {
		return nil, err
	}

	return &Result{Pairs: result.Pairs(simRes.Output, opt.Fn), Pipeline: p}, nil
}

// pairEnumerator emits a partial for every pair of records in one token's
// posting list — quadratic per list, with no filtering (the algorithm's
// defining drawback). In R-S mode only cross-relation pairs qualify
// (origin, not rid inequality, decides — R#x may legitimately pair with
// S#x) and the pair key carries the R-side rid first. Emission stops once
// the budget is exhausted so the process stays bounded; the driver then
// reports the failure. One instance is shared by all reduce tasks, which
// may run concurrently, so the running count is atomic.
type pairEnumerator struct {
	budget  int64
	rs      bool
	emitted atomic.Int64
}

// Reduce implements mapreduce.Reducer.
func (e *pairEnumerator) Reduce(ctx *mapreduce.Context, key string, values []any) {
	ps := make([]rsinput.Posting, len(values))
	for i, v := range values {
		ps[i] = v.(rsinput.Posting)
	}
	for i := range ps {
		for j := i + 1; j < len(ps); j++ {
			a, b := ps[i], ps[j]
			if e.rs {
				if a.Origin == b.Origin {
					continue
				}
				if a.Origin != 0 {
					a, b = b, a
				}
			} else {
				if a.RID == b.RID {
					continue
				}
				if a.RID > b.RID {
					a, b = b, a
				}
			}
			if e.budget > 0 && e.emitted.Add(1) > e.budget {
				ctx.Inc("vsmart.pair.dropped", 1)
				continue
			}
			ctx.Inc("vsmart.pair.emits", 1)
			mapreduce.EmitPair(ctx, uint32(a.RID), uint32(b.RID),
				result.Overlap{C: 1, La: a.Len, Lb: b.Len})
		}
	}
}
