package result

import (
	"encoding/binary"
	"math"

	"fsjoin/internal/mapreduce"
	"fsjoin/internal/similarity"
	"fsjoin/internal/spill"
)

// Overlap is the shuffle value of every join that counts common tokens per
// candidate pair: a (partial or complete) common-token count plus the two
// record lengths, so the threshold is applied — and the similarity
// computed — without the original strings (Section V-B).
type Overlap struct {
	C, La, Lb int32
}

// Scored is an exactly verified pair's payload: the common-token count and
// the similarity computed where both records were at hand.
type Scored struct {
	C   int32
	Sim float64
}

// Candidate is the empty value of a candidate-pair record: the pair is the
// key, and FirstValue dedups it (minhash's banding job, massjoin's dedup).
type Candidate struct{}

// The codecs (DESIGN.md §8), which also make the stages that emit these
// values checkpointable (DESIGN.md §9). SumOverlaps' fold is pure addition
// on C, so re-folding merged runs is exact.
func init() {
	spill.Register(spill.TagCandidate, spill.Codec[Candidate]{
		Append: func(buf []byte, _ Candidate) []byte { return buf },
		Read:   func(*spill.Dec) Candidate { return Candidate{} },
		Size:   func(Candidate) int { return 0 },
	})
	spill.Register(spill.TagOverlap, spill.Codec[Overlap]{
		Append: func(buf []byte, o Overlap) []byte {
			buf = binary.AppendVarint(buf, int64(o.C))
			buf = binary.AppendVarint(buf, int64(o.La))
			return binary.AppendVarint(buf, int64(o.Lb))
		},
		Read: func(d *spill.Dec) Overlap {
			return Overlap{C: int32(d.Varint()), La: int32(d.Varint()), Lb: int32(d.Varint())}
		},
		Size: func(Overlap) int { return 12 },
	})
	spill.Register(spill.TagScored, spill.Codec[Scored]{
		Append: func(buf []byte, s Scored) []byte {
			buf = binary.AppendVarint(buf, int64(s.C))
			return binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.Sim))
		},
		Read: func(d *spill.Dec) Scored {
			s := Scored{C: int32(d.Varint())}
			s.Sim = math.Float64frombits(d.U64())
			return s
		},
		Size: func(Scored) int { return 12 },
	})
}

// SumOverlaps merges one pair's partial counts. It is a combiner with the
// engine's fold fast path, and the Reduce and Fold half of a
// mapreduce.FoldingReducer that embeds it.
type SumOverlaps struct{}

// Reduce implements mapreduce.Reducer.
func (s SumOverlaps) Reduce(ctx *mapreduce.Context, key string, values []any) {
	acc := values[0]
	for _, v := range values[1:] {
		acc = s.Fold(acc, v)
	}
	ctx.Emit(key, acc)
}

// Fold implements mapreduce.Folder.
func (s SumOverlaps) Fold(acc, v any) any {
	a := acc.(Overlap)
	s.FoldTyped(&a, v.(Overlap))
	return a
}

// FoldTyped implements mapreduce.TypedFolder: the same addition, in place.
func (SumOverlaps) FoldTyped(acc *Overlap, v Overlap) { acc.C += v.C }

var _ mapreduce.TypedFolder[Overlap] = SumOverlaps{}

// OverlapGroup returns folded group i of g as the rid pair its PairKey
// encodes and its summed Overlap, unboxed: what a threshold reducer's
// FinishGroup reads. It is false when the key is not eight bytes or the
// groups were folded boxed; FinishFold then takes the group.
func OverlapGroup(g *spill.Groups, i int) (a, b uint32, sum Overlap, ok bool) {
	k := g.Abbrev(i)
	if sum, ok = spill.GroupAcc[Overlap](g, i); !ok || k.Len != 8 {
		return 0, 0, sum, false
	}
	return uint32(k.Prefix >> 32), uint32(k.Prefix), sum, true
}

// Pairs decodes a final job's output — pair keys carrying Overlap values,
// which fn scores — into canonically sorted result pairs.
func Pairs(kvs []mapreduce.KV, fn similarity.Func) []Pair {
	return decodePairs(kvs, func(v any) (int, float64) {
		o := v.(Overlap)
		return int(o.C), fn.Sim(int(o.C), int(o.La), int(o.Lb))
	})
}

// ScoredPairs is Pairs for a final job that emits Scored values.
func ScoredPairs(kvs []mapreduce.KV) []Pair {
	return decodePairs(kvs, func(v any) (int, float64) {
		s := v.(Scored)
		return int(s.C), s.Sim
	})
}

func decodePairs(kvs []mapreduce.KV, payload func(v any) (common int, sim float64)) []Pair {
	out := make([]Pair, 0, len(kvs))
	for _, kv := range kvs {
		a, b := mapreduce.DecodePairKey(kv.Key)
		p := Pair{A: int32(a), B: int32(b)}
		p.Common, p.Sim = payload(kv.Value)
		out = append(out, p)
	}
	Sort(out)
	return out
}
