// Package direct is the benchmark's engine-overhead yardstick: a
// single-node Jaccard set-similarity join with no MapReduce engine under
// it — global token order, position index over prefixes, position filter,
// exact verification — in the shape of py_stringsimjoin's set_sim_join.
// FS-Join's wall time divided by this loop's, on the same input, is
// core.engine_overhead_x.
package direct

import (
	"math"
	"sort"
)

// Pair is one result: A indexes r and B indexes s (A < B for self-joins).
type Pair struct {
	A, B   int
	Common int
}

// SelfJoin returns every pair of sets whose Jaccard similarity reaches
// theta, sorted by (A, B).
func SelfJoin(sets [][]uint32, theta float64) []Pair { return join(sets, sets, theta, true) }

// Join returns every (r, s) pair whose Jaccard similarity reaches theta,
// sorted by (A, B).
func Join(r, s [][]uint32, theta float64) []Pair { return join(r, s, theta, false) }

type posting struct{ rec, pos int32 }

func join(r, s [][]uint32, theta float64, self bool) []Pair {
	// Token order: ascending document frequency over both relations, so
	// prefixes hold the rarest tokens.
	freq := map[uint32]int32{}
	for _, set := range s {
		for _, t := range set {
			freq[t]++
		}
	}
	if !self {
		for _, set := range r {
			for _, t := range set {
				freq[t]++
			}
		}
	}
	toks := make([]uint32, 0, len(freq))
	for t := range freq {
		toks = append(toks, t)
	}
	sort.Slice(toks, func(i, j int) bool {
		if fi, fj := freq[toks[i]], freq[toks[j]]; fi != fj {
			return fi < fj
		}
		return toks[i] < toks[j]
	})
	rank := make(map[uint32]uint32, len(toks))
	for i, t := range toks {
		rank[t] = uint32(i)
	}
	so := reorder(s, rank)
	ro := so
	if !self {
		ro = reorder(r, rank)
	}

	// Position index over every s prefix.
	index := make([][]posting, len(toks))
	for y, set := range so {
		for j := 0; j < prefixLen(len(set), theta); j++ {
			index[set[j]] = append(index[set[j]], posting{int32(y), int32(j)})
		}
	}

	// Probe with every r prefix; overlap[y] < 0 marks a pruned candidate.
	overlap := make([]int32, len(so))
	var cands []int32
	var out []Pair
	for x, set := range ro {
		lx := len(set)
		lo := int(math.Ceil(theta*float64(lx) - 1e-9))
		hi := int(math.Floor(float64(lx)/theta + 1e-9))
		cands = cands[:0]
		for i := 0; i < prefixLen(lx, theta); i++ {
			for _, p := range index[set[i]] {
				y := int(p.rec)
				ly := len(so[y])
				if ly < lo || ly > hi || overlap[y] < 0 || (self && y <= x) {
					continue
				}
				if overlap[y] == 0 {
					cands = append(cands, p.rec)
				}
				// Position filter: even if every remaining token matched,
				// could the pair still reach the required overlap?
				rest := min(lx-i-1, ly-int(p.pos)-1)
				if int(overlap[y])+1+rest < required(lx, ly, theta) {
					overlap[y] = -1
					continue
				}
				overlap[y]++
			}
		}
		for _, y := range cands {
			if overlap[y] > 0 {
				if c := intersect(set, so[y]); c >= required(lx, len(so[y]), theta) {
					out = append(out, Pair{A: x, B: int(y), Common: c})
				}
			}
			overlap[y] = 0
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// reorder re-encodes every set as ascending ranks under the token order.
func reorder(sets [][]uint32, rank map[uint32]uint32) [][]uint32 {
	out := make([][]uint32, len(sets))
	for i, set := range sets {
		rs := make([]uint32, len(set))
		for j, t := range set {
			rs[j] = rank[t]
		}
		sort.Slice(rs, func(a, b int) bool { return rs[a] < rs[b] })
		out[i] = rs
	}
	return out
}

// prefixLen is the Jaccard probing prefix: two sets reaching theta share a
// token within their first l − ⌈θl⌉ + 1 tokens.
func prefixLen(l int, theta float64) int {
	if l == 0 {
		return 0
	}
	return l - int(math.Ceil(theta*float64(l)-1e-9)) + 1
}

// required is the smallest overlap with which sets of sizes la and lb
// reach Jaccard theta: ⌈θ/(1+θ)·(la+lb)⌉.
func required(la, lb int, theta float64) int {
	return int(math.Ceil(theta/(1+theta)*float64(la+lb) - 1e-9))
}

func intersect(a, b []uint32) int {
	c, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			c++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return c
}
