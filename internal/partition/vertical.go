// Package partition implements the paper's two partitioning schemes:
// vertical partitioning (Section IV — pivots over the global ordering split
// every record into disjoint segments, segments with equal partition id form
// a fragment) and the horizontal length-based partitioning optimisation
// (Section V-A).
package partition

import (
	"fmt"
	"math/rand"
	"sort"

	"fsjoin/internal/order"
	"fsjoin/internal/tokens"
)

// PivotMethod selects how vertical pivots are chosen from the global
// ordering (Section IV, "Pivots Selection Methods").
type PivotMethod int

const (
	// Random assigns every token an equal probability of being a pivot.
	Random PivotMethod = iota
	// EvenInterval splits the global ordering into equal-width rank
	// intervals.
	EvenInterval
	// EvenTF splits the cumulative term frequency evenly — the method
	// FS-Join adopts, because equal fragment token counts balance reducers.
	EvenTF
)

// String implements fmt.Stringer.
func (m PivotMethod) String() string {
	switch m {
	case Random:
		return "random"
	case EvenInterval:
		return "even-interval"
	case EvenTF:
		return "even-tf"
	default:
		return fmt.Sprintf("PivotMethod(%d)", int(m))
	}
}

// SelectPivots chooses np pivot ranks from the global ordering using the
// given method. Pivots are strictly increasing ranks in (0, |U|); a record
// token with rank r belongs to fragment k where k is the number of pivots
// ≤ r. seed drives the Random method only.
func SelectPivots(method PivotMethod, o *order.Order, np int, seed int64) []uint32 {
	domain := o.Domain()
	if np <= 0 || domain <= 1 {
		return nil
	}
	if np >= domain {
		np = domain - 1
	}
	switch method {
	case Random:
		rng := rand.New(rand.NewSource(seed))
		seen := make(map[uint32]bool, np)
		pivots := make([]uint32, 0, np)
		for len(pivots) < np {
			p := uint32(rng.Intn(domain-1) + 1)
			if !seen[p] {
				seen[p] = true
				pivots = append(pivots, p)
			}
		}
		sort.Slice(pivots, func(i, j int) bool { return pivots[i] < pivots[j] })
		return pivots
	case EvenInterval:
		pivots := make([]uint32, 0, np)
		for k := 1; k <= np; k++ {
			p := uint32(k * domain / (np + 1))
			if p == 0 {
				p = 1
			}
			if len(pivots) > 0 && p <= pivots[len(pivots)-1] {
				p = pivots[len(pivots)-1] + 1
			}
			if int(p) >= domain {
				break
			}
			pivots = append(pivots, p)
		}
		return pivots
	case EvenTF:
		pivots := make([]uint32, 0, np)
		target := o.TotalFreq / int64(np+1)
		if target <= 0 {
			target = 1
		}
		var cum int64
		var nextBoundary = target
		for rank := 0; rank < domain && len(pivots) < np; rank++ {
			cum += o.FreqByRank[rank]
			if cum >= nextBoundary {
				p := uint32(rank + 1)
				if int(p) >= domain {
					break
				}
				if len(pivots) == 0 || p > pivots[len(pivots)-1] {
					pivots = append(pivots, p)
				}
				nextBoundary = cum + target
			}
		}
		return pivots
	default:
		panic("partition: unknown pivot method")
	}
}

// Splitter splits canonical records into segments at a fixed pivot set.
type Splitter struct {
	pivots []uint32
}

// NewSplitter returns a splitter for the given strictly-increasing pivots.
func NewSplitter(pivots []uint32) *Splitter {
	ps := make([]uint32, len(pivots))
	copy(ps, pivots)
	return &Splitter{pivots: ps}
}

// Fragments returns the number of fragments (|P|+1).
func (sp *Splitter) Fragments() int { return len(sp.pivots) + 1 }

// Pivots returns the pivot ranks.
func (sp *Splitter) Pivots() []uint32 { return sp.pivots }

// FragmentOf returns the fragment index of a token rank: the number of
// pivots ≤ rank. Segment k of a record holds ranks in [P[k-1], P[k]).
func (sp *Splitter) FragmentOf(rank uint32) int {
	return sort.Search(len(sp.pivots), func(i int) bool { return sp.pivots[i] > rank })
}

// Segment is one vertical slice of a record plus the metadata the filters
// need (Section V-A): the record length |s|, tokens ahead of the segment
// |s^h| and behind it |s^e|.
type Segment struct {
	// Fragment is the vertical partition id this segment belongs to.
	Fragment int
	// Tokens is the segment's token slice (a subslice of the record).
	Tokens []tokens.ID
	// StrLen is |s|, the full record length.
	StrLen int
	// Head is |s^h|, the number of record tokens before this segment.
	Head int
	// Tail is |s^e|, the number of record tokens after this segment.
	Tail int
}

// Split cuts a canonical record into its non-empty segments in fragment
// order. Segments share the record's token storage.
func (sp *Splitter) Split(rec tokens.Record) []Segment {
	if len(rec.Tokens) == 0 {
		return nil
	}
	return sp.SplitAppend(make([]Segment, 0, 4), rec)
}

// SplitAppend appends rec's segments, as Split returns them, to dst and
// returns the extended slice: a caller splitting record after record into
// one reused buffer allocates nothing once it has grown.
func (sp *Splitter) SplitAppend(dst []Segment, rec tokens.Record) []Segment {
	ts := rec.Tokens
	start := 0
	for start < len(ts) {
		frag := sp.FragmentOf(ts[start])
		end := start + 1
		if frag < len(sp.pivots) {
			bound := sp.pivots[frag]
			for end < len(ts) && ts[end] < bound {
				end++
			}
		} else {
			end = len(ts)
		}
		dst = append(dst, Segment{
			Fragment: frag,
			Tokens:   ts[start:end],
			StrLen:   len(ts),
			Head:     start,
			Tail:     len(ts) - end,
		})
		start = end
	}
	return dst
}
