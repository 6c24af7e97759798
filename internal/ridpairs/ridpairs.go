// Package ridpairs implements the RIDPairsPPJoin baseline (Vernica, Carey,
// Li — SIGMOD 2010) the paper compares against: a signature-based MapReduce
// join that keys records by their prefix tokens. Each record is duplicated
// once per prefix token (the duplication the paper's Figure 1 criticises),
// groups are joined with PPJoin-style length and positional filters plus
// early-terminating verification, and a final job deduplicates pairs
// discovered under multiple prefix tokens. Both self-joins and R-S joins
// are supported, as in Vernica et al.'s original system.
package ridpairs

import (
	"fmt"
	"sort"

	"fsjoin/internal/filters"
	"fsjoin/internal/mapreduce"
	"fsjoin/internal/order"
	"fsjoin/internal/result"
	"fsjoin/internal/rsinput"
	"fsjoin/internal/similarity"
	"fsjoin/internal/tokens"
)

// Options configures a RIDPairsPPJoin run.
type Options struct {
	// Fn and Theta define the similarity predicate.
	Fn    similarity.Func
	Theta float64
	// Cluster is the cost model (default: the paper's 10-node cluster).
	Cluster *mapreduce.Cluster
	// Parallelism is the local engine parallelism for every stage; see
	// mapreduce.Config.Parallelism.
	Parallelism int
	// MemoryBudget caps each map task's in-memory shuffle buffer; records
	// beyond it spill to sorted runs on disk and merge back at reduce time
	// (see mapreduce.Config.MemoryBudgetBytes). 0 defers to the engine
	// default (FSJOIN_MEMORY_BUDGET); negative forces unbounded. Results
	// are byte-identical at any budget.
	MemoryBudget int64
	// Env is the execution environment (cancellation, fault policy, spill
	// and checkpoint directories, transport) handed to the pipeline as is;
	// see mapreduce.Env.
	Env mapreduce.Env
	// Bitmap configures the hashed signature filter applied before
	// verification (DESIGN.md §11): per-record fixed-width token bitmaps
	// whose XOR+popcount overlap upper bound skips verifyOverlap calls
	// that cannot reach the required overlap. Output is identical with the
	// filter on or off; only verified-candidate counts change.
	Bitmap filters.BitmapConfig
}

// Result carries the join output and pipeline metrics.
type Result struct {
	// Pairs are the similar pairs, sorted canonically.
	Pairs []result.Pair
	// Pipeline exposes per-stage metrics.
	Pipeline *mapreduce.Pipeline
}

// SelfJoin runs the three-stage RIDPairsPPJoin pipeline over one
// collection.
func SelfJoin(c *tokens.Collection, opt Options) (*Result, error) {
	return run(c, nil, opt)
}

// Join runs the R-S variant; result pairs carry the R-side id first.
func Join(r, s *tokens.Collection, opt Options) (*Result, error) {
	if s == nil {
		return nil, fmt.Errorf("ridpairs: nil S collection")
	}
	return run(r, s, opt)
}

func run(r, s *tokens.Collection, opt Options) (*Result, error) {
	if opt.Theta <= 0 || opt.Theta > 1 {
		return nil, fmt.Errorf("ridpairs: theta %v outside (0, 1]", opt.Theta)
	}
	if opt.Cluster == nil {
		opt.Cluster = mapreduce.DefaultCluster()
	}
	rs := s != nil
	p := mapreduce.NewPipeline("ridpairs-ppjoin", opt.Cluster)
	p.Parallelism = opt.Parallelism
	p.MemoryBudgetBytes = opt.MemoryBudget
	p.Env = opt.Env

	// Stage 1: global ordering (same job as FS-Join's) over the union.
	o, err := order.Compute(p, rsinput.Union(r, s))
	if err != nil {
		return nil, err
	}
	input, err := rsinput.Ordered(o, r, s)
	if err != nil {
		return nil, err
	}

	// Stage 2: RIDPairs kernel — duplicate per prefix token, join groups.
	kernelRes, err := p.Feed(mapreduce.Config{Name: "rid-pairs"},
		input,
		&prefixMapper{fn: opt.Fn, theta: opt.Theta},
		&groupJoiner{fn: opt.Fn, theta: opt.Theta, rs: rs, bitmap: opt.Bitmap.ResolveEnv()})
	if err != nil {
		return nil, err
	}

	// Stage 3: deduplicate pairs found under several common prefix tokens.
	dedupRes, err := p.Chain(mapreduce.Config{Name: "dedup"}, kernelRes, mapreduce.FirstValue{})
	if err != nil {
		return nil, err
	}

	return &Result{Pairs: result.Pairs(dedupRes.Output, opt.Fn), Pipeline: p}, nil
}

// prefixMapper emits one full record copy (origin tag plus the whole
// ordered token set) per prefix token — the signature-duplication scheme of
// Figure 1.
type prefixMapper struct {
	fn    similarity.Func
	theta float64
}

// Map implements mapreduce.Mapper.
func (m *prefixMapper) Map(ctx *mapreduce.Context, kv mapreduce.KV) {
	pv := kv.Value.(rsinput.Record)
	if pv.Rec.Len() == 0 {
		return
	}
	plen := m.fn.ProbePrefixLen(m.theta, pv.Rec.Len())
	ctx.Inc("ridpairs.duplicates", int64(plen))
	for _, t := range pv.Rec.Tokens[:plen] {
		ctx.Emit(mapreduce.U32Key(t), pv)
	}
}

// groupJoiner joins all records sharing one prefix token using the PPJoin
// length and positional filters and early-terminating verification,
// emitting exact similarities. A pair is emitted in every group it appears
// in; stage 3 dedups. Pruning inside a group is safe because the group of
// the pair's smallest common token always passes the positional bound.
type groupJoiner struct {
	fn     similarity.Func
	theta  float64
	rs     bool
	bitmap filters.BitmapConfig
}

// Reduce implements mapreduce.Reducer.
func (g *groupJoiner) Reduce(ctx *mapreduce.Context, key string, values []any) {
	w := mapreduce.DecodeU32Key(key)
	recs := make([]rsinput.Record, len(values))
	pos := make([]int, len(values))
	for i, v := range values {
		recs[i] = v.(rsinput.Record)
		pos[i] = tokenPos(recs[i].Rec.Tokens, w)
	}
	// Bitmap filter (DESIGN.md §11): one hashed signature per record in the
	// group, built once, pre-screens every pair before verification.
	sigW := 0
	var sigs []filters.Signature
	if g.bitmap.Enabled() && len(recs) > 1 {
		total := 0
		for i := range recs {
			total += recs[i].Rec.Len()
		}
		sigW = g.bitmap.Words(float64(total) / float64(len(recs)))
		sigs = make([]filters.Signature, len(recs))
		for i := range recs {
			filters.BuildSignature(&sigs[i], recs[i].Rec.Tokens, sigW)
		}
		ctx.Inc(filters.CtrBitmapBuilt, int64(len(recs)))
	}
	for i := range recs {
		for j := i + 1; j < len(recs); j++ {
			a, b := &recs[i], &recs[j]
			if g.rs {
				if a.Origin == b.Origin {
					continue
				}
			} else if a.Rec.RID == b.Rec.RID {
				continue
			}
			ctx.Inc("ridpairs.comparisons", 1)
			la, lb := a.Rec.Len(), b.Rec.Len()
			lmin, lmax := la, lb
			if lmin > lmax {
				lmin, lmax = lmax, lmin
			}
			if lmin < g.fn.MinLen(g.theta, lmax) {
				ctx.Inc("ridpairs.pruned.length", 1)
				continue
			}
			required := g.fn.MinOverlap(g.theta, la, lb)
			// PPJoin positional filter: all common tokens are ≥ w, so at
			// most 1 + min(remaining after w) can match.
			if bound := 1 + min(la-pos[i]-1, lb-pos[j]-1); bound < required {
				ctx.Inc("ridpairs.pruned.positional", 1)
				continue
			}
			if sigW != 0 {
				// Skip verification when the signature bound already proves
				// the required overlap unreachable; verifyOverlap would
				// return ok=false for any such pair, so output is identical.
				if filters.SigPrune(&sigs[i], &sigs[j], sigW, la, lb, required) {
					ctx.Inc(filters.CtrBitmapRejected, 1)
					continue
				}
				ctx.Inc(filters.CtrBitmapPassed, 1)
			}
			ctx.Inc(filters.CtrVerifyCandidates, 1)
			if g.rs {
				ctx.Inc(result.CtrRSCandidates, 1)
			}
			c, ok := filters.VerifyOverlap(a.Rec.Tokens, b.Rec.Tokens, required)
			if !ok || !g.fn.AtLeast(c, la, lb, g.theta) {
				continue
			}
			x, y := a, b
			if g.rs {
				ctx.Inc(result.CtrRSEmitted, 1)
				if a.Origin != 0 {
					x, y = b, a
				}
			} else if a.Rec.RID > b.Rec.RID {
				x, y = b, a
			}
			ctx.Emit(mapreduce.PairKey(uint32(x.Rec.RID), uint32(y.Rec.RID)),
				result.Overlap{C: int32(c), La: int32(x.Rec.Len()), Lb: int32(y.Rec.Len())})
		}
	}
}

// tokenPos locates w in a sorted token set.
func tokenPos(ts []tokens.ID, w uint32) int {
	return sort.Search(len(ts), func(i int) bool { return ts[i] >= w })
}
