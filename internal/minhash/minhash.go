// Package minhash implements the approximate set-similarity self-join the
// paper lists as future work ("we plan to extend our methods to approximate
// approaches"): MinHash signatures with locality-sensitive banding, run as
// MapReduce jobs on the same engine as the exact algorithms.
//
// Each record is summarised by k minimum hash values; the signature is cut
// into b bands of r rows (k = b·r). Two records land in the same candidate
// bucket when any band hashes identically, which happens with probability
// 1 − (1 − J^r)^b for Jaccard similarity J — the classic S-curve whose
// steep part is positioned around the threshold by the band shape chosen in
// Params. Candidates are then verified exactly, so the join has perfect
// precision and recall governed by the S-curve.
package minhash

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"fsjoin/internal/mapreduce"
	"fsjoin/internal/order"
	"fsjoin/internal/result"
	"fsjoin/internal/rsinput"
	"fsjoin/internal/similarity"
	"fsjoin/internal/spill"
	"fsjoin/internal/tokens"
)

// Params configures the approximate join.
type Params struct {
	// Theta is the Jaccard threshold candidates are verified against.
	Theta float64
	// Bands and Rows shape the LSH S-curve; Bands·Rows hash functions are
	// evaluated per record. Zero values select a shape whose 50%-recall
	// point sits just below Theta (see Auto).
	Bands int
	Rows  int
	// Seed derives the hash family.
	Seed uint64
	// Cluster is the cost model (default: the paper's 10-node cluster).
	Cluster *mapreduce.Cluster
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

// Auto fills Bands and Rows so the S-curve's steep section brackets theta:
// the similarity at which a pair becomes a candidate with probability 50%
// is (1/b)^(1/r) ≈ theta − margin.
func Auto(theta float64) (bands, rows int) {
	best := math.Inf(1)
	bands, rows = 16, 4
	target := theta * 0.9
	for r := 2; r <= 12; r++ {
		for b := 4; b <= 64; b++ {
			mid := math.Pow(1/float64(b), 1/float64(r))
			if d := math.Abs(mid - target); d < best {
				best = d
				bands, rows = b, r
			}
		}
	}
	return bands, rows
}

// Result carries the approximate join's output and diagnostics.
type Result struct {
	// Pairs are the verified similar pairs found, sorted canonically.
	Pairs []result.Pair
	// Candidates is the number of distinct candidate pairs verified.
	Candidates int64
	// Pipeline exposes per-stage metrics.
	Pipeline *mapreduce.Pipeline
}

// SelfJoin runs the two-job approximate pipeline: banding (map: signatures,
// reduce: bucket pair enumeration + dedup) and verification (records
// shipped to candidate pairs, exact Jaccard check).
func SelfJoin(c *tokens.Collection, p Params) (*Result, error) {
	return run(c, nil, p)
}

// Join runs the R-S variant: signatures are built for both relations, only
// cross-relation bucket pairs become candidates, and verification routes by
// the R-side rid with partner records resolved against S — so overlapping
// R and S rid spaces never alias. Result pairs carry the R-side id first.
func Join(r, s *tokens.Collection, p Params) (*Result, error) {
	if s == nil {
		return nil, errors.New("minhash: nil S collection")
	}
	return run(r, s, p)
}

func run(r, s *tokens.Collection, p Params) (*Result, error) {
	if p.Theta <= 0 || p.Theta > 1 {
		return nil, fmt.Errorf("minhash: theta %v outside (0, 1]", p.Theta)
	}
	if p.Bands <= 0 || p.Rows <= 0 {
		p.Bands, p.Rows = Auto(p.Theta)
	}
	rs := s != nil
	pipe := mapreduce.NewPipeline("minhash-lsh", p.Cluster)
	pipe.Parallelism = p.Parallelism
	pipe.MemoryBudgetBytes = p.MemoryBudget
	pipe.Env = p.Env

	// Job 1: band signatures → candidate pairs. Token ids hash directly, so
	// no global ordering job is needed; r and s share a dictionary.
	hashes := newFamily(p.Seed, p.Bands*p.Rows)
	bandRes, err := pipe.Feed(mapreduce.Config{Name: "banding"},
		rsinput.Tagged(r, s),
		mapreduce.MapFunc(func(ctx *mapreduce.Context, kv mapreduce.KV) {
			tr := kv.Value.(rsinput.Record)
			rec := tr.Rec
			if rec.Len() == 0 {
				return
			}
			sig := hashes.signature(rec.Tokens)
			for b := 0; b < p.Bands; b++ {
				key := bandKey(b, sig[b*p.Rows:(b+1)*p.Rows])
				ctx.Emit(key, rsinput.Posting{RID: rec.RID, Len: int32(rec.Len()), Origin: tr.Origin})
			}
		}),
		&bucketJoiner{theta: p.Theta, rs: rs})
	if err != nil {
		return nil, err
	}
	dedup, err := pipe.Chain(mapreduce.Config{Name: "candidates"}, bandRes, mapreduce.FirstValue{})
	if err != nil {
		return nil, err
	}

	// Job 2: verification with shipped records (Merge-style routing). Each
	// candidate routes to its R-side (self: smaller) rid; the partner side
	// resolves from the driver-shared index — S for R-S joins, so equal R
	// and S rids never alias.
	partnerSide := r
	if rs {
		partnerSide = s
	}
	verifyIn := make([]mapreduce.KV, 0, len(dedup.Output)+r.Len())
	for _, rec := range r.Records {
		verifyIn = append(verifyIn, mapreduce.KV{
			Key:   mapreduce.U32Key(uint32(rec.RID)),
			Value: order.RecordValue{Rec: rec},
		})
	}
	for _, kv := range dedup.Output {
		a, b := mapreduce.DecodePairKey(kv.Key)
		verifyIn = append(verifyIn, mapreduce.KV{Key: mapreduce.U32Key(a), Value: partner(b)})
	}
	verRes, err := pipe.Run(mapreduce.Config{Name: "verify"},
		verifyIn, mapreduce.IdentityMapper,
		&verifier{theta: p.Theta, byRID: indexRecords(partnerSide), rs: rs})
	if err != nil {
		return nil, err
	}

	return &Result{
		Pairs:      result.ScoredPairs(verRes.Output),
		Candidates: int64(len(dedup.Output)),
		Pipeline:   pipe,
	}, nil
}

// family is a seeded multiply-shift hash family over token ids.
type family struct {
	a, b []uint64
}

func newFamily(seed uint64, k int) *family {
	f := &family{a: make([]uint64, k), b: make([]uint64, k)}
	state := seed*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for i := 0; i < k; i++ {
		f.a[i] = next() | 1 // odd multiplier
		f.b[i] = next()
	}
	return f
}

// signature returns the k min-hash values of a token set.
func (f *family) signature(ts []tokens.ID) []uint64 {
	sig := make([]uint64, len(f.a))
	for i := range sig {
		sig[i] = math.MaxUint64
	}
	for _, t := range ts {
		x := uint64(t)
		for i := range f.a {
			h := f.a[i]*x + f.b[i]
			if h < sig[i] {
				sig[i] = h
			}
		}
	}
	return sig
}

// bandKey hashes one band's index and rows into an 8-byte bucket key: the
// FNV-1a hash of them all, so two bands' buckets differ as two buckets of
// one band do.
func bandKey(band int, rows []uint64) string {
	h := fnv.New64a()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(band))
	_, _ = h.Write(buf[:])
	for _, r := range rows {
		binary.BigEndian.PutUint64(buf[:], r)
		_, _ = h.Write(buf[:])
	}
	binary.BigEndian.PutUint64(buf[:], h.Sum64())
	return string(buf[:])
}

// bucketJoiner enumerates pairs within one band bucket, length-filtered.
// In R-S mode only cross-relation pairs qualify (origin, not rid
// inequality, decides — R#x may legitimately pair with S#x) and the
// candidate key carries the R-side rid first.
type bucketJoiner struct {
	theta float64
	rs    bool
}

// Reduce implements mapreduce.Reducer.
func (j *bucketJoiner) Reduce(ctx *mapreduce.Context, key string, values []any) {
	ps := make([]rsinput.Posting, len(values))
	for i, v := range values {
		ps[i] = v.(rsinput.Posting)
	}
	sort.Slice(ps, func(a, b int) bool {
		if ps[a].Origin != ps[b].Origin {
			return ps[a].Origin < ps[b].Origin
		}
		return ps[a].RID < ps[b].RID
	})
	fn := similarity.Jaccard
	for i := range ps {
		for k := i + 1; k < len(ps); k++ {
			a, b := ps[i], ps[k]
			if j.rs {
				if a.Origin == b.Origin {
					continue
				}
				if a.Origin != 0 {
					a, b = b, a
				}
			} else if a.RID == b.RID {
				continue
			}
			la, lb := int(a.Len), int(b.Len)
			if la > lb {
				la, lb = lb, la
			}
			if la < fn.MinLen(j.theta, lb) {
				ctx.Inc("minhash.pruned.length", 1)
				continue
			}
			ctx.Inc("minhash.bucket.pairs", 1)
			mapreduce.EmitPair(ctx, uint32(a.RID), uint32(b.RID), result.Candidate{})
		}
	}
}

// partner marks a candidate partner id in the verification job.
type partner int32

// The codec of this package's own shuffle value (DESIGN.md §8); the others
// are shared: rsinput.Posting, result.Candidate, order.RecordValue, and the
// verify stage's output result.Scored.
func init() {
	spill.Register(spill.TagPartner, spill.Codec[partner]{
		Append: func(buf []byte, p partner) []byte { return binary.AppendVarint(buf, int64(p)) },
		Read:   func(d *spill.Dec) partner { return partner(d.Varint()) },
		Size:   func(partner) int { return 4 },
	})
}

// verifier resolves candidate partners against its routed record and checks
// the exact similarity. Like MassJoin's Merge, partner records are looked
// up from the driver-shared index (the S side for R-S joins) while the
// candidate list arrives through the shuffle; the routed record itself
// travels as an order.RecordValue so shuffle accounting includes it.
type verifier struct {
	theta float64
	byRID map[int32]tokens.Record
	rs    bool
}

// Reduce implements mapreduce.Reducer.
func (v *verifier) Reduce(ctx *mapreduce.Context, key string, values []any) {
	var own tokens.Record
	var partners []int32
	for _, val := range values {
		switch x := val.(type) {
		case order.RecordValue:
			own = x.Rec
		case partner:
			partners = append(partners, int32(x))
		}
	}
	if own.Tokens == nil {
		return
	}
	sort.Slice(partners, func(i, j int) bool { return partners[i] < partners[j] })
	for _, p := range partners {
		if other, ok := v.byRID[p]; ok {
			result.Score(ctx, similarity.Jaccard, v.theta, own, other, v.rs)
		}
	}
}

// indexRecords builds the verification-side record lookup.
func indexRecords(c *tokens.Collection) map[int32]tokens.Record {
	m := make(map[int32]tokens.Record, c.Len())
	for _, r := range c.Records {
		m[r.RID] = r
	}
	return m
}
