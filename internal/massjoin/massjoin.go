// Package massjoin implements the MassJoin baseline (Deng, Li, Hao, Wang,
// Feng — ICDE 2014) as the paper describes it: a partition-based signature
// scheme where every indexed record is split into even segments (all of
// them signatures) and every probing record generates, for each admissible
// partner length ℓ ∈ [θ|t|, |t|], the candidate substrings that could equal
// one of those segments. Matching signatures yield candidates; verification
// then ships full records to candidates over two more jobs — the
// record-duplication blowup the paper measures.
//
// Soundness of the signature scheme: a similar pair's token-level edit
// distance (= symmetric difference) is at most K = ⌊(1−θ)/(1+θ)(|s|+|t|)⌋
// for Jaccard, so with the shorter record split into m ≥ K+1 contiguous
// segments at least one segment survives untouched and appears as a
// contiguous substring of the longer record, displaced by at most K
// positions. When a record is too short for m ≥ K+1 non-empty segments the
// pair falls back to an unconditional "match-all" signature.
//
// Two variants are provided, matching the paper's experiments:
//   - Merge: candidate lists are merged per record before full records are
//     shipped to the verification reducers.
//   - Merge+Light: a light filter (token grouping) prunes candidates using
//     small grouped-frequency vectors before any record is shipped.
package massjoin

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"

	"fsjoin/internal/mapreduce"
	"fsjoin/internal/result"
	"fsjoin/internal/similarity"
	"fsjoin/internal/spill"
	"fsjoin/internal/tokens"
)

// ErrBudgetExceeded reports that signature generation exceeded
// Options.MaxSignatures — the stand-in for the paper's observation that
// MassJoin cannot complete on larger datasets.
var ErrBudgetExceeded = errors.New("massjoin: signature budget exceeded")

// Variant selects the MassJoin flavour.
type Variant int

const (
	// Merge is the basic variant with merged candidate lists.
	Merge Variant = iota
	// MergeLight adds the token-grouping light filter.
	MergeLight
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	if v == MergeLight {
		return "merge+light"
	}
	return "merge"
}

// lightGroups is the dimensionality of the token-grouping vectors used by
// the Light filter.
const lightGroups = 16

// Options configures a MassJoin run.
type Options struct {
	// Fn and Theta define the similarity predicate. MassJoin's signature
	// bound is Jaccard-specific in the paper; other functions use their
	// own symmetric-difference bounds derived from MinOverlapReal.
	Fn    similarity.Func
	Theta float64
	// Variant selects Merge or Merge+Light.
	Variant Variant
	// Cluster is the cost model (default: the paper's 10-node cluster).
	Cluster *mapreduce.Cluster
	// MaxSignatures caps signature-job emissions; 0 means unlimited.
	MaxSignatures int64
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
	// Candidates is the number of distinct candidate pairs verified.
	Candidates int64
	// Pipeline exposes per-stage metrics.
	Pipeline *mapreduce.Pipeline
}

// sigEntry is one signature occurrence: which record, its length, whether
// it is a probe-side occurrence, and (for Light) the grouped-token vector.
type sigEntry struct {
	rid   int32
	l     int32
	probe bool
	light [lightGroups]uint16
}

// ridList is a merged candidate list for one record.
type ridList struct {
	rids []int32
}

// The codecs of this package's own shuffle values (DESIGN.md §8); the others
// are shared: result.Candidate, order.RecordValue, and the verify stage's
// output result.Scored.
func init() {
	spill.Register(spill.TagSigEntry, spill.Codec[sigEntry]{
		Append: func(buf []byte, e sigEntry) []byte {
			buf = binary.AppendVarint(buf, int64(e.rid))
			buf = binary.AppendVarint(buf, int64(e.l))
			if e.probe {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
			for _, g := range e.light {
				buf = binary.LittleEndian.AppendUint16(buf, g)
			}
			return buf
		},
		Read: func(d *spill.Dec) sigEntry {
			e := sigEntry{rid: int32(d.Varint()), l: int32(d.Varint())}
			e.probe = d.Bool()
			for i := range e.light {
				e.light[i] = d.U16()
			}
			return e
		},
		Size: func(sigEntry) int { return 9 + 2*lightGroups },
	})
	spill.Register(spill.TagRidList, spill.Codec[ridList]{
		Append: func(buf []byte, l ridList) []byte { return spill.AppendI32s(buf, l.rids) },
		Read:   func(d *spill.Dec) ridList { return ridList{rids: d.I32s()} },
		Size:   func(l ridList) int { return 4 * len(l.rids) },
	})
}

// maxSymDiff returns K, the largest token-level symmetric difference a
// similar pair of the given lengths may have: |s|+|t|−2·minOverlap.
func maxSymDiff(fn similarity.Func, theta float64, ls, lt int) int {
	k := int(math.Floor(float64(ls+lt) - 2*fn.MinOverlapReal(theta, ls, lt) + 1e-9))
	if k < 0 {
		k = 0
	}
	return k
}

// segmentsFor returns m(ℓ), the index-side segment count for records of
// length ℓ: K for the worst admissible partner plus one, capped at ℓ so all
// segments are non-empty.
func segmentsFor(fn similarity.Func, theta float64, l int) int {
	worst := maxSymDiff(fn, theta, l, fn.MaxLen(theta, l))
	m := worst + 1
	if m > l {
		m = l
	}
	if m < 1 {
		m = 1
	}
	return m
}

// segBounds returns the start positions of the m even segments of a record
// of length l (the final bound l is appended).
func segBounds(l, m int) []int {
	bounds := make([]int, m+1)
	base, rem := l/m, l%m
	off := 0
	for i := 0; i < m; i++ {
		bounds[i] = off
		off += base
		if i < rem {
			off++
		}
	}
	bounds[m] = l
	return bounds
}

// sigKey encodes a signature key, 8 bytes: the FNV-1a hash of partner
// length ℓ, segment index and token hash. The match-all signature uses
// segment index 0xFFFF and hash 0.
func sigKey(l int, seg uint16, h uint64) string {
	var b [14]byte
	binary.BigEndian.PutUint32(b[0:], uint32(l))
	binary.BigEndian.PutUint16(b[4:], seg)
	binary.BigEndian.PutUint64(b[6:], h)
	x := uint64(14695981039346656037) // FNV-1a, 64-bit
	for _, c := range b {
		x = (x ^ uint64(c)) * 1099511628211
	}
	binary.BigEndian.PutUint64(b[:], x)
	return string(b[:8])
}

const allSeg = uint16(0xFFFF)

// hashTokens hashes a token slice with FNV-1a.
func hashTokens(ts []tokens.ID) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, t := range ts {
		binary.BigEndian.PutUint32(b[:], t)
		_, _ = h.Write(b[:])
	}
	return h.Sum64()
}

// lightVector folds a record into a small grouped-frequency vector; the
// overlap of two records is at most the min-sum of their vectors.
func lightVector(ts []tokens.ID) [lightGroups]uint16 {
	var v [lightGroups]uint16
	for _, t := range ts {
		g := t % lightGroups
		if v[g] != math.MaxUint16 {
			v[g]++
		}
	}
	return v
}

// lightOverlapBound returns the token-grouping upper bound on |s∩t|.
func lightOverlapBound(a, b [lightGroups]uint16) int {
	n := 0
	for i := range a {
		if a[i] < b[i] {
			n += int(a[i])
		} else {
			n += int(b[i])
		}
	}
	return n
}
