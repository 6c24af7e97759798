package fsjoin

import (
	"errors"
	"fmt"

	"fsjoin/internal/core"
	"fsjoin/internal/filters"
	"fsjoin/internal/mapreduce"
	"fsjoin/internal/massjoin"
	"fsjoin/internal/minhash"
	"fsjoin/internal/result"
	"fsjoin/internal/ridpairs"
	"fsjoin/internal/tokens"
	"fsjoin/internal/vsmart"
)

// ErrSelfJoinOnly is returned when an R-S join is requested with an
// algorithm that only supports self-joins (the MassJoin variants — the
// form the paper evaluates them in).
var ErrSelfJoinOnly = errors.New("fsjoin: algorithm supports self-joins only (use FSJoin, FSJoinV, RIDPairsPPJoin, VSmartJoin or ApproxLSHJoin)")

// Collection is a prepared set of records ready to join. Building a
// Collection once lets several joins share the tokenisation work.
type Collection struct {
	c *Dictionary
	t *tokens.Collection
}

// Dictionary interns token strings; collections joined together must share
// one. The zero value is not usable; use NewDictionary.
type Dictionary struct {
	d *tokens.Dictionary
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary { return &Dictionary{d: tokens.NewDictionary()} }

// NewCollection encodes pre-tokenised records (one string slice per record)
// against the dictionary. Record i gets id i.
func (d *Dictionary) NewCollection(sets [][]string) *Collection {
	c := &tokens.Collection{Records: make([]tokens.Record, 0, len(sets))}
	for i, set := range sets {
		ids := make([]tokens.ID, len(set))
		for j, tok := range set {
			ids[j] = d.d.Intern(tok)
		}
		c.Records = append(c.Records, tokens.NewRecord(int32(i), ids))
	}
	return &Collection{c: d, t: c}
}

// NewTextCollection tokenises raw texts with the word tokenizer (lower-
// cased, split on non-alphanumerics) and encodes them. Record i gets id i.
func (d *Dictionary) NewTextCollection(texts []string) *Collection {
	raws := make([]tokens.Raw, len(texts))
	for i, t := range texts {
		raws[i] = tokens.Raw{RID: int32(i), Text: t}
	}
	return &Collection{c: d, t: d.d.Encode(raws, tokens.WordTokenizer{})}
}

// Len returns the number of records.
func (c *Collection) Len() int { return c.t.Len() }

// SelfJoinSets joins pre-tokenised records against themselves.
func SelfJoinSets(sets [][]string, opt Options) (*Result, error) {
	return NewDictionary().NewCollection(sets).SelfJoin(opt)
}

// SelfJoinStrings tokenises texts with the word tokenizer and self-joins.
func SelfJoinStrings(texts []string, opt Options) (*Result, error) {
	return NewDictionary().NewTextCollection(texts).SelfJoin(opt)
}

// JoinSets runs an R-S join between two pre-tokenised collections: every
// result pair matches one R record (Pair.A) with one S record (Pair.B).
// R and S are encoded against one fresh dictionary; record ids are the
// slice indices within each relation, so the two id spaces overlap — pairs
// are oriented, never deduplicated across relations, and (i, i) is a
// legitimate result when R[i] and S[i] are similar (DESIGN.md §12).
func JoinSets(r, s [][]string, opt Options) (*Result, error) {
	d := NewDictionary()
	return d.NewCollection(r).Join(d.NewCollection(s), opt)
}

// JoinStrings tokenises both relations with the word tokenizer and runs an
// R-S join; see JoinSets for the pairing semantics.
func JoinStrings(r, s []string, opt Options) (*Result, error) {
	d := NewDictionary()
	return d.NewTextCollection(r).Join(d.NewTextCollection(s), opt)
}

// RSJoin runs an R-S join between two prepared collections sharing a
// Dictionary. It is Collection.Join as a free function, named for symmetry
// with the paper's R-S formulation.
func RSJoin(r, s *Collection, opt Options) (*Result, error) {
	return r.Join(s, opt)
}

// SelfJoin runs the configured algorithm over the collection.
func (c *Collection) SelfJoin(opt Options) (*Result, error) {
	return run(c, nil, opt)
}

// Join runs an R-S join between two collections sharing a dictionary: the
// receiver is R, s is S, and every result pair carries the R-side id in
// Pair.A. All algorithms except the MassJoin variants support R-S joins
// (ApproxLSHJoin remains Jaccard-only); MassJoin returns ErrSelfJoinOnly.
func (c *Collection) Join(s *Collection, opt Options) (*Result, error) {
	if s == nil {
		return nil, errors.New("fsjoin: nil S collection")
	}
	if c.c != s.c {
		return nil, errors.New("fsjoin: collections must share a Dictionary")
	}
	return run(c, s, opt)
}

// run is the one dispatch path of every join: a nil s is a self-join of r,
// as in the algorithm packages beneath it.
func run(r, s *Collection, opt Options) (*Result, error) {
	fn, err := opt.Function.internal()
	if err != nil {
		return nil, err
	}
	pivots, err := opt.PivotSelection.internal()
	if err != nil {
		return nil, err
	}
	kernel, err := opt.JoinMethod.internal()
	if err != nil {
		return nil, err
	}
	cl, par, env := opt.cluster(), opt.localParallelism(), opt.env()
	switch opt.Algorithm {
	case FSJoin, FSJoinV:
		hp := opt.HorizontalPivots
		if opt.Algorithm == FSJoinV {
			hp = 0
		} else if hp == 0 {
			hp = 10
		}
		res, err := dispatch(r, s, core.SelfJoin, core.Join, core.Options{
			Fn: fn, Theta: opt.Threshold, PivotMethod: pivots,
			VerticalPartitions: opt.VerticalPartitions, HorizontalPivots: hp,
			JoinMethod: kernel, Seed: opt.Seed,
			Cluster: cl, LocalParallelism: par, MemoryBudget: opt.MemoryBudget, Env: env,
		})
		if err != nil {
			return nil, err
		}
		return publish(res.Pairs, res.Pipeline, res.FilterOutputRecords), nil
	case RIDPairsPPJoin:
		res, err := dispatch(r, s, ridpairs.SelfJoin, ridpairs.Join, ridpairs.Options{
			Fn: fn, Theta: opt.Threshold,
			Cluster: cl, Parallelism: par, MemoryBudget: opt.MemoryBudget, Env: env,
		})
		if err != nil {
			return nil, err
		}
		return publish(res.Pairs, res.Pipeline, res.Pipeline.Counter("ridpairs.comparisons")), nil
	case VSmartJoin:
		res, err := dispatch(r, s, vsmart.SelfJoin, vsmart.Join, vsmart.Options{
			Fn: fn, Theta: opt.Threshold, MaxPairEmits: opt.WorkBudget,
			Cluster: cl, Parallelism: par, MemoryBudget: opt.MemoryBudget, Env: env,
		})
		if err != nil {
			return nil, err
		}
		return publish(res.Pairs, res.Pipeline, res.Pipeline.Counter("vsmart.pair.emits")), nil
	case ApproxLSHJoin:
		if opt.Function != Jaccard {
			return nil, errors.New("fsjoin: ApproxLSHJoin supports Jaccard only")
		}
		res, err := dispatch(r, s, minhash.SelfJoin, minhash.Join, minhash.Params{
			Theta: opt.Threshold, Seed: uint64(opt.Seed),
			Cluster: cl, Parallelism: par, MemoryBudget: opt.MemoryBudget, Env: env,
		})
		if err != nil {
			return nil, err
		}
		return publish(res.Pairs, res.Pipeline, res.Candidates), nil
	case MassJoinMerge, MassJoinMergeLight:
		if s != nil {
			return nil, ErrSelfJoinOnly
		}
		variant := massjoin.Merge
		if opt.Algorithm == MassJoinMergeLight {
			variant = massjoin.MergeLight
		}
		res, err := massjoin.SelfJoin(r.t, massjoin.Options{
			Fn: fn, Theta: opt.Threshold, Variant: variant, MaxSignatures: opt.WorkBudget,
			Cluster: cl, Parallelism: par, MemoryBudget: opt.MemoryBudget, Env: env,
		})
		if err != nil {
			return nil, err
		}
		return publish(res.Pairs, res.Pipeline, res.Candidates), nil
	default:
		return nil, fmt.Errorf("fsjoin: unknown algorithm %d", int(opt.Algorithm))
	}
}

// dispatch calls an algorithm's self-join entry point when s is nil and
// its R-S entry point otherwise.
func dispatch[O, R any](r, s *Collection,
	self func(*tokens.Collection, O) (R, error),
	rs func(r, s *tokens.Collection, opt O) (R, error), opt O) (R, error) {
	if s == nil {
		return self(r.t, opt)
	}
	return rs(r.t, s.t, opt)
}

// publish converts internal results into the public form.
func publish(pairs []result.Pair, p *mapreduce.Pipeline, candidates int64) *Result {
	out := &Result{Pairs: make([]Pair, len(pairs))}
	for i, pr := range pairs {
		out.Pairs[i] = Pair{A: int(pr.A), B: int(pr.B), Common: pr.Common, Similarity: pr.Sim}
	}
	ck := p.CheckpointStats()
	out.Stats = Stats{
		SimulatedTime:      p.TotalSimulatedTime(),
		ShuffleRecords:     p.TotalShuffleRecords(),
		ShuffleBytes:       p.TotalShuffleBytes(),
		LoadImbalance:      p.MaxLoadImbalance(),
		Candidates:         candidates,
		BitmapBuilt:        p.Counter(filters.CtrBitmapBuilt),
		BitmapRejected:     p.Counter(filters.CtrBitmapRejected),
		BitmapPassed:       p.Counter(filters.CtrBitmapPassed),
		VerifiedCandidates: p.Counter(filters.CtrVerifyCandidates),
		SpillRuns:          p.Counter(mapreduce.CounterSpillRuns),
		SpillBytes:         p.Counter(mapreduce.CounterSpillBytes),
		ShufflePeakBytes:   p.MaxCounter(mapreduce.CounterShufflePeak),
		RecordsSkipped:     p.Counter(mapreduce.CounterRecordsSkipped),
		CheckpointHits:     ck.Hits,
		CheckpointMisses:   ck.Misses,
		RSCandidates:       p.Counter(result.CtrRSCandidates),
		RSPairs:            p.Counter(result.CtrRSEmitted),
	}
	return out
}
