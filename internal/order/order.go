// Package order implements the paper's Ordering phase (Section III): a
// MapReduce job that counts per-token term frequency and derives the global
// ordering O — tokens sorted ascending by frequency, ties broken by token
// id. Records re-encoded under O have their rarest tokens first, which is
// what makes prefix filtering effective and what Even-TF pivot selection
// consumes.
package order

import (
	"cmp"
	"fmt"
	"slices"

	"fsjoin/internal/mapreduce"
	"fsjoin/internal/tokens"
)

// noRank marks token ids inside the RankOf range that never occurred in the
// ordered collection.
const noRank = ^uint32(0)

// Kind selects the global ordering strategy. The paper adopts ascending
// term frequency (Section IV) but notes lexicographic and other orders as
// alternatives explored in the literature.
type Kind int

const (
	// FreqAscending ranks rare tokens first — the paper's choice: prefixes
	// hold rare tokens, and Even-TF pivots can balance fragment mass.
	FreqAscending Kind = iota
	// FreqDescending ranks frequent tokens first (an anti-pattern for
	// prefix filtering; provided for ablation).
	FreqDescending
	// Lexicographic ranks by original token id, ignoring frequency.
	Lexicographic
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case FreqAscending:
		return "freq-asc"
	case FreqDescending:
		return "freq-desc"
	case Lexicographic:
		return "lexicographic"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Order is the global ordering O over the token domain U.
type Order struct {
	// RankOf maps original token id → rank under O (0 = globally rarest).
	RankOf []uint32
	// TokenAt maps rank → original token id (the inverse of RankOf).
	TokenAt []uint32
	// FreqByRank maps rank → term frequency of that token.
	FreqByRank []int64
	// TotalFreq is Σ FreqByRank, the total number of token occurrences.
	TotalFreq int64
}

// Domain returns |U|, the number of distinct tokens.
func (o *Order) Domain() int { return len(o.TokenAt) }

// Apply re-encodes a collection under the ordering: every token id is
// replaced by its rank and each record is re-canonicalised. Tokens unknown
// to the ordering are rejected — the ordering must be computed over (a
// superset of) the collection.
func (o *Order) Apply(c *tokens.Collection) (*tokens.Collection, error) {
	out := &tokens.Collection{Records: make([]tokens.Record, 0, len(c.Records))}
	for _, r := range c.Records {
		ids := make([]tokens.ID, len(r.Tokens))
		for i, t := range r.Tokens {
			if int(t) >= len(o.RankOf) || o.RankOf[t] == noRank {
				return nil, fmt.Errorf("order: token %d outside ordered domain (|U|=%d)", t, len(o.TokenAt))
			}
			ids[i] = o.RankOf[t]
		}
		out.Records = append(out.Records, tokens.NewRecordOwned(r.RID, ids))
	}
	return out, nil
}

// recordValue wraps a record as a shuffle value with size accounting.
type recordValue struct{ rec tokens.Record }

// SizeBytes implements mapreduce.Sized.
func (v recordValue) SizeBytes() int { return 4 + 4*len(v.rec.Tokens) }

// RecordsToKV converts a collection into MapReduce input pairs, one record
// per pair, keyed by rid.
func RecordsToKV(c *tokens.Collection) []mapreduce.KV {
	in := make([]mapreduce.KV, len(c.Records))
	for i, r := range c.Records {
		in[i] = mapreduce.KV{Key: mapreduce.U32Key(uint32(r.RID)), Value: recordValue{rec: r}}
	}
	return in
}

// KVRecord extracts the record from a pair produced by RecordsToKV.
func KVRecord(kv mapreduce.KV) tokens.Record { return kv.Value.(recordValue).rec }

// sumReducer adds int64 values per key; used as combiner and reducer, with
// the engine's fold fast paths.
type sumReducer struct{}

// Reduce implements mapreduce.Reducer.
func (sumReducer) Reduce(ctx *mapreduce.Context, key string, values []any) {
	var n int64
	for _, v := range values {
		n += v.(int64)
	}
	ctx.Emit(key, n)
}

// Fold implements mapreduce.Folder.
func (sumReducer) Fold(acc, v any) any { return acc.(int64) + v.(int64) }

// FinishFold implements mapreduce.FoldingReducer.
func (sumReducer) FinishFold(ctx *mapreduce.Context, key string, acc any) { ctx.Emit(key, acc) }

// Compute runs the ordering MapReduce job over the collection and builds
// the paper's global order (ascending term frequency, ties by token id).
func Compute(p *mapreduce.Pipeline, c *tokens.Collection) (*Order, error) {
	return ComputeKind(p, c, FreqAscending)
}

// ComputeKind runs the ordering MapReduce job over the collection and
// builds the global order of the given kind. The job mirrors [18]: map
// emits (token, 1) per occurrence, a combiner pre-aggregates, the reducer
// sums, and the driver sorts tokens by the kind's comparator.
func ComputeKind(p *mapreduce.Pipeline, c *tokens.Collection, kind Kind) (*Order, error) {
	in := RecordsToKV(c)
	mapper := mapreduce.MapFunc(func(ctx *mapreduce.Context, kv mapreduce.KV) {
		for _, t := range KVRecord(kv).Tokens {
			ctx.Emit(mapreduce.U32Key(t), int64(1))
		}
	})
	res, err := p.Run(mapreduce.Config{
		Name:     "ordering",
		Combiner: sumReducer{},
	}, in, mapper, sumReducer{})
	if err != nil {
		return nil, err
	}

	type tf struct {
		tok  uint32
		freq int64
	}
	tfs := make([]tf, 0, len(res.Output))
	var maxTok uint32
	for _, kv := range res.Output {
		t := mapreduce.DecodeU32Key(kv.Key)
		tfs = append(tfs, tf{tok: t, freq: kv.Value.(int64)})
		if t > maxTok {
			maxTok = t
		}
	}
	// Every kind breaks ties by token id; FreqAscending is the default.
	compare := func(a, b tf) int { return cmp.Or(cmp.Compare(a.freq, b.freq), cmp.Compare(a.tok, b.tok)) }
	switch kind {
	case FreqDescending:
		compare = func(a, b tf) int { return cmp.Or(cmp.Compare(b.freq, a.freq), cmp.Compare(a.tok, b.tok)) }
	case Lexicographic:
		compare = func(a, b tf) int { return cmp.Compare(a.tok, b.tok) }
	}
	slices.SortFunc(tfs, compare)

	o := &Order{
		RankOf:     make([]uint32, maxTok+1),
		TokenAt:    make([]uint32, len(tfs)),
		FreqByRank: make([]int64, len(tfs)),
	}
	if len(tfs) == 0 {
		o.RankOf = nil
	}
	for i := range o.RankOf {
		o.RankOf[i] = noRank
	}
	for rank, e := range tfs {
		o.RankOf[e.tok] = uint32(rank)
		o.TokenAt[rank] = e.tok
		o.FreqByRank[rank] = e.freq
		o.TotalFreq += e.freq
	}
	return o, nil
}
