// Package result defines the join-result pair type shared by all join
// implementations and the brute-force oracle, plus comparison helpers used
// by the correctness tests, and the final verification the joins share:
// Verifier for summed partial counts, Score for one exactly intersected
// pair.
package result

import (
	"cmp"
	"fmt"
	"slices"
)

// Pair is one similarity-join result.
type Pair struct {
	// A and B are record ids: A < B for self-joins, A is the R-side id for
	// R-S joins.
	A, B int32
	// Common is the exact intersection size |s ∩ t|.
	Common int
	// Sim is the similarity score.
	Sim float64
}

// Key returns a canonical 64-bit key for the pair ids.
func (p Pair) Key() uint64 { return uint64(uint32(p.A))<<32 | uint64(uint32(p.B)) }

// Counter names every R-S join path increments at its final verifying
// stage, surfaced through fsjoin.Stats (always zero for self-joins).
const (
	// CtrRSCandidates counts cross-relation pairs the verifying stage
	// examined (for RIDPairsPPJoin: per prefix group, before dedup).
	CtrRSCandidates = "rs.pairs.candidates"
	// CtrRSEmitted counts cross-relation pairs that passed the threshold
	// (for RIDPairsPPJoin: per prefix group, before dedup).
	CtrRSEmitted = "rs.pairs.emitted"
)

// String implements fmt.Stringer.
func (p Pair) String() string {
	return fmt.Sprintf("(%d,%d c=%d sim=%.4f)", p.A, p.B, p.Common, p.Sim)
}

// Sort orders pairs canonically by (A, B).
func Sort(ps []Pair) {
	slices.SortFunc(ps, func(a, b Pair) int {
		return cmp.Or(cmp.Compare(a.A, b.A), cmp.Compare(a.B, b.B))
	})
}

// Diff compares two canonical result sets by id pairs and intersection
// counts, returning human-readable discrepancies (at most limit entries).
// Both inputs must be sorted with Sort. Sim values are not compared — they
// are derived from Common and the lengths.
func Diff(got, want []Pair, limit int) []string {
	var out []string
	add := func(format string, args ...any) {
		if len(out) < limit {
			out = append(out, fmt.Sprintf(format, args...))
		}
	}
	i, j := 0, 0
	for i < len(got) && j < len(want) {
		g, w := got[i], want[j]
		switch {
		case g.Key() == w.Key():
			if g.Common != w.Common {
				add("pair (%d,%d): common %d, want %d", g.A, g.B, g.Common, w.Common)
			}
			i++
			j++
		case g.Key() < w.Key():
			add("unexpected pair %v", g)
			i++
		default:
			add("missing pair %v", w)
			j++
		}
	}
	for ; i < len(got); i++ {
		add("unexpected pair %v", got[i])
	}
	for ; j < len(want); j++ {
		add("missing pair %v", want[j])
	}
	return out
}
