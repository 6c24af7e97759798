// Package order implements the paper's Ordering phase (Section III): a
// MapReduce job that counts per-token term frequency and derives the global
// ordering O — tokens sorted ascending by frequency, ties broken by token
// id. Records re-encoded under O have their rarest tokens first, which is
// what makes prefix filtering effective and what Even-TF pivot selection
// consumes.
package order

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"fsjoin/internal/mapreduce"
	"fsjoin/internal/spill"
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

	// par is the Parallelism of the pipeline that computed the order, which
	// Apply fans out with.
	par int
}

// Domain returns |U|, the number of distinct tokens.
func (o *Order) Domain() int { return len(o.TokenAt) }

// applyChunk is how many records one Apply work item re-encodes into one
// arena: small enough that a few dozen items balance across workers and an
// arena (≈ 450 KB at Wiki's 55 tokens a record) is an ordinary allocation,
// large enough that handing one out costs nothing beside it.
const applyChunk = 2048

// Apply re-encodes a collection under the ordering: every token id is
// replaced by its rank and each record is sorted again. Ranks are a
// permutation of the token ids, so a canonical record stays duplicate-free
// and needs no dedup pass. Records are re-encoded a range at a time — the
// tokens of one range in one arena, each record's slice capped at its own
// length — and the ranges concurrently, at the parallelism of the pipeline
// that computed the order (sequentially at 0 or 1), with the same result
// at any setting. Tokens unknown to the ordering are rejected — the
// ordering must be computed over (a superset of) the collection — and the
// error names the first such token in record order.
func (o *Order) Apply(c *tokens.Collection) (*tokens.Collection, error) {
	out := &tokens.Collection{Records: make([]tokens.Record, len(c.Records))}
	// RunPhase returns whichever range failed first in time; errs keeps
	// every range's failure, in record order.
	errs := make([]error, (len(c.Records)+applyChunk-1)/applyChunk)
	mapreduce.RunPhase(o.par, len(errs), func(ch int) error {
		lo := ch * applyChunk
		errs[ch] = o.rank(c.Records[lo:min(lo+applyChunk, len(c.Records))], out.Records[lo:])
		return errs[ch]
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// rank re-encodes the records of in into out, their tokens in one arena.
func (o *Order) rank(in, out []tokens.Record) error {
	n := 0
	for _, r := range in {
		n += len(r.Tokens)
	}
	arena := make([]tokens.ID, n)
	for i, r := range in {
		ranks := arena[:len(r.Tokens):len(r.Tokens)]
		arena = arena[len(ranks):]
		for j, t := range r.Tokens {
			if int(t) >= len(o.RankOf) || o.RankOf[t] == noRank {
				return fmt.Errorf("order: token %d outside ordered domain (|U|=%d)", t, len(o.TokenAt))
			}
			ranks[j] = o.RankOf[t]
		}
		slices.Sort(ranks)
		out[i] = tokens.Record{RID: r.RID, Tokens: ranks}
	}
	return nil
}

// RecordValue is a record as a shuffle value — rid and tokens, sized
// 4+4n: the input of every algorithm's first stage (RecordsToKV) and what
// the verification stages of minhash and massjoin ship.
type RecordValue struct{ Rec tokens.Record }

// RecordValue's codec makes the stages that take records as input
// fingerprintable and their upstream outputs checkpointable (DESIGN.md §9),
// and lets the stages that ship records spill them (DESIGN.md §8).
func init() {
	spill.Register(spill.TagRecordValue, spill.Codec[RecordValue]{
		Append: func(buf []byte, r RecordValue) []byte {
			buf = binary.AppendVarint(buf, int64(r.Rec.RID))
			return spill.AppendU32s(buf, r.Rec.Tokens)
		},
		Read: func(d *spill.Dec) RecordValue {
			r := RecordValue{Rec: tokens.Record{RID: int32(d.Varint())}}
			r.Rec.Tokens = d.U32s()
			return r
		},
		Size: func(v RecordValue) int { return 4 + 4*len(v.Rec.Tokens) },
	})
}

// RecordsToKV converts a collection into MapReduce input pairs, one record
// per pair, keyed by rid.
func RecordsToKV(c *tokens.Collection) []mapreduce.KV {
	in := make([]mapreduce.KV, len(c.Records))
	for i, r := range c.Records {
		in[i] = mapreduce.KV{Key: mapreduce.U32Key(uint32(r.RID)), Value: RecordValue{Rec: r}}
	}
	return in
}

// KVRecord extracts the record from a pair produced by RecordsToKV.
func KVRecord(kv mapreduce.KV) tokens.Record { return kv.Value.(RecordValue).Rec }

// sumReducer adds int64 values per key: the ordering job's reducer, through
// the engine's fold fast path.
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

// FoldTyped implements mapreduce.TypedFolder.
func (sumReducer) FoldTyped(acc *int64, v int64) { *acc += v }

var _ mapreduce.TypedFolder[int64] = sumReducer{}

// FinishFold implements mapreduce.FoldingReducer.
func (sumReducer) FinishFold(ctx *mapreduce.Context, key string, acc any) { ctx.Emit(key, acc) }

// FinishGroup implements mapreduce.GroupFinisher: FinishFold of a token's
// count, emitted as the (token, count) it is when the group was folded
// unboxed and its key is a token's four bytes.
func (r sumReducer) FinishGroup(ctx *mapreduce.Context, g *spill.Groups, i int) {
	if n, ok := spill.GroupAcc[int64](g, i); ok {
		if k := g.Abbrev(i); k.Len == 4 {
			mapreduce.EmitU32(ctx, uint32(k.Prefix>>32), n)
			return
		}
	}
	r.FinishFold(ctx, g.Key(i, spill.NewKeyArena(1)), g.Acc(i))
}

// denseCounter is the ordering job's mapper, an in-mapper combiner: token
// ids are dense interned integers, so a task attempt counts occurrences in
// an array indexed by token id and emits each token it met once, with its
// count, when the task ends. What reaches the shuffle is what a combiner
// would have left of one (token, 1) emission per occurrence — one 20-byte
// record per distinct token of the task — without hashing, probing and
// folding every occurrence on the way.
//
// The counts are the attempt's, kept in Context.Local: the engine shares
// this one mapper across tasks, which run concurrently under
// Config.Parallelism. The mapper itself holds only the job's free list of
// zeroed count arrays, so a job allocates as many as it runs tasks at
// once, not one per task (40 tasks × 2 MB on a 250 000-token domain).
type denseCounter struct {
	domain int // largest token id + 1

	mu   sync.Mutex
	free []*tokenCounts
}

// tokenCounts is one task attempt's term frequencies.
type tokenCounts struct {
	n       []int64  // indexed by token id
	touched []uint32 // ids with n > 0, in first-occurrence order
}

// Map implements mapreduce.Mapper.
func (m *denseCounter) Map(ctx *mapreduce.Context, kv mapreduce.KV) {
	tc, _ := ctx.Local.(*tokenCounts)
	if tc == nil {
		tc = m.get()
		ctx.Local = tc
	}
	for _, t := range KVRecord(kv).Tokens {
		if tc.n[t] == 0 {
			tc.touched = append(tc.touched, t)
		}
		tc.n[t]++
	}
}

// Cleanup implements mapreduce.Cleanupper: it emits the attempt's counts
// in first-occurrence order — the order a combiner's fold slots filled in —
// through EmitU32, which puts each into its partition's column of counts
// as the token id and count it is, and hands the array back zeroed. An
// attempt that dies before this point never gets here, so its array is
// dropped with its Context instead of being reused dirty.
func (m *denseCounter) Cleanup(ctx *mapreduce.Context) {
	tc, _ := ctx.Local.(*tokenCounts)
	if tc == nil {
		return
	}
	for _, t := range tc.touched {
		mapreduce.EmitU32(ctx, t, tc.n[t])
		tc.n[t] = 0
	}
	tc.touched = tc.touched[:0]
	ctx.Local = nil
	m.mu.Lock()
	m.free = append(m.free, tc)
	m.mu.Unlock()
}

// get returns a zeroed count array, a reused one when there is one.
func (m *denseCounter) get() *tokenCounts {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n := len(m.free); n > 0 {
		tc := m.free[n-1]
		m.free = m.free[:n-1]
		return tc
	}
	return &tokenCounts{n: make([]int64, m.domain)}
}

// Compute runs the ordering MapReduce job over the collection and builds
// the paper's global order (ascending term frequency, ties by token id).
func Compute(p *mapreduce.Pipeline, c *tokens.Collection) (*Order, error) {
	return ComputeKind(p, c, FreqAscending)
}

// ComputeKind runs the ordering MapReduce job over the collection and
// builds the global order of the given kind. The job is [18]'s term
// frequency count with the combiner moved into the mapper (denseCounter):
// each map task emits (token, count) once per distinct token, the reducer
// sums, and ComputeKind reads the sums out of the columns the reduce
// tasks committed and ranks the tokens from a dense frequency table with a
// stable radix sort on frequency, so ties fall to the smaller token id for
// every kind. c's records must be canonical (package tokens). An unknown
// kind is an error.
func ComputeKind(p *mapreduce.Pipeline, c *tokens.Collection, kind Kind) (*Order, error) {
	if kind < FreqAscending || kind > Lexicographic {
		return nil, fmt.Errorf("order: unknown kind %v", kind)
	}
	domain := int(c.MaxToken()) + 1
	res, err := p.Feed(mapreduce.Config{Name: "ordering"}, RecordsToKV(c), &denseCounter{domain: domain}, sumReducer{})
	if err != nil {
		return nil, err
	}
	return fromCounts(res, domain, kind, p.Parallelism)
}

// fromCounts builds the order of the given kind from the ordering job's
// result: (token, count) records, read typed out of a Feed result's
// columns, which it consumes (mapreduce.EachU32), or out of Output when
// the job ran as Run.
func fromCounts(res *mapreduce.Result, domain int, kind Kind, par int) (*Order, error) {
	freq := make([]int64, domain)
	var maxFreq int64
	count := func(t uint32, f int64) {
		freq[t] = f
		maxFreq = max(maxFreq, f)
	}
	typed, err := mapreduce.EachU32(res, count)
	if err != nil {
		return nil, err
	}
	if !typed {
		for _, kv := range res.Output {
			count(mapreduce.DecodeU32Key(kv.Key), kv.Value.(int64))
		}
	}
	// The scan leaves the tokens in id order — Lexicographic as it stands,
	// and the tie order a stable sort on frequency keeps.
	toks := make([]uint32, 0, res.Metrics.OutputRecords)
	for t, f := range freq {
		if f > 0 {
			toks = append(toks, uint32(t))
		}
	}
	switch kind {
	case FreqAscending:
		radixSortBy(toks, maxFreq, func(t uint32) int64 { return freq[t] })
	case FreqDescending:
		radixSortBy(toks, maxFreq, func(t uint32) int64 { return maxFreq - freq[t] })
	}

	o := &Order{TokenAt: toks, FreqByRank: make([]int64, len(toks)), par: par}
	if len(toks) > 0 {
		o.RankOf = make([]uint32, domain)
		for i := range o.RankOf {
			o.RankOf[i] = noRank
		}
	}
	for rank, t := range toks {
		o.RankOf[t] = uint32(rank)
		o.FreqByRank[rank] = freq[t]
		o.TotalFreq += freq[t]
	}
	return o, nil
}

// radixSortBy stably sorts toks ascending by key(t), a value in
// [0, maxKey]: one least-significant-digit pass per byte maxKey occupies,
// each with a 256-entry histogram — two passes for a domain whose most
// frequent token occurs under 65 536 times, against a comparison sort's
// log₂ n rounds through a closure.
func radixSortBy(toks []uint32, maxKey int64, key func(t uint32) int64) {
	src, dst := toks, make([]uint32, len(toks))
	passes := 0
	for shift := 0; maxKey>>shift > 0; shift += 8 {
		passes++
		var next [256]int
		for _, t := range src {
			next[byte(key(t)>>shift)]++
		}
		sum := 0
		for d, n := range next {
			next[d], sum = sum, sum+n
		}
		for _, t := range src {
			d := byte(key(t) >> shift)
			dst[next[d]] = t
			next[d]++
		}
		src, dst = dst, src
	}
	if passes%2 == 1 {
		copy(toks, src)
	}
}
