package partition

import (
	"sort"

	"fsjoin/internal/similarity"
)

// Role describes how a record participates in a horizontal partition's join.
type Role uint8

const (
	// RoleRegion marks membership in a plain length-region partition, where
	// all qualifying pairs are joined.
	RoleRegion Role = iota
	// RoleSmall marks the short side of a boundary partition (|s| < L_i).
	RoleSmall
	// RoleLarge marks the long side of a boundary partition (|s| ≥ L_i).
	RoleLarge
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RoleRegion:
		return "region"
	case RoleSmall:
		return "small"
	case RoleLarge:
		return "large"
	default:
		return "role?"
	}
}

// Assignment maps a record into one horizontal partition with a join role.
type Assignment struct {
	// Partition is the horizontal partition id in [0, Partitions()).
	Partition int
	// Role is the record's join role inside that partition.
	Role Role
}

// Horizontal implements the paper's length-based horizontal partitioning:
// t pivots L_1..L_t yield 2t+1 partitions — t+1 length regions h_0..h_t and
// t boundary partitions h_{t+1}..h_{2t}, where boundary i receives strings
// with lengths in [MinLen(L_i), MaxLen(L_i)] from regions i−1 and i, and
// joins only small × large pairs so no result is produced twice.
type Horizontal struct {
	fn     similarity.Func
	theta  float64
	pivots []int
}

// SelectLengthPivots chooses up to maxPivots length pivots that split the
// record-length histogram into near-equal-count regions. To guarantee that
// no similar pair spans two non-adjacent regions (DESIGN.md §3), a candidate
// pivot X is only kept when MinLen(θ, X) ≥ previous pivot — i.e. adjacent
// pivots are at least a θ-factor apart (L_{i+1} ≥ L_i/θ for Jaccard).
func SelectLengthPivots(fn similarity.Func, theta float64, lengths []int, maxPivots int) []int {
	if maxPivots <= 0 || len(lengths) == 0 {
		return nil
	}
	ls := make([]int, len(lengths))
	copy(ls, lengths)
	sort.Ints(ls)
	var pivots []int
	per := len(ls) / (maxPivots + 1)
	if per < 1 {
		per = 1
	}
	for k := 1; k <= maxPivots; k++ {
		idx := k * per
		if idx >= len(ls) {
			break
		}
		cand := ls[idx]
		if cand <= 1 {
			continue
		}
		if len(pivots) > 0 {
			prev := pivots[len(pivots)-1]
			if cand <= prev || fn.MinLen(theta, cand) < prev {
				continue
			}
		}
		if cand > ls[len(ls)-1] {
			break
		}
		pivots = append(pivots, cand)
	}
	return pivots
}

// NewHorizontal builds a horizontal partitioner from pre-selected pivots.
// The pivots must be strictly increasing and θ-spaced (use
// SelectLengthPivots); NewHorizontal re-validates and drops violators.
func NewHorizontal(fn similarity.Func, theta float64, pivots []int) *Horizontal {
	var ps []int
	for _, p := range pivots {
		if len(ps) > 0 && (p <= ps[len(ps)-1] || fn.MinLen(theta, p) < ps[len(ps)-1]) {
			continue
		}
		ps = append(ps, p)
	}
	return &Horizontal{fn: fn, theta: theta, pivots: ps}
}

// Pivots returns the accepted length pivots.
func (h *Horizontal) Pivots() []int { return h.pivots }

// Regions returns the number of length-region partitions (t+1).
func (h *Horizontal) Regions() int { return len(h.pivots) + 1 }

// Partitions returns the total number of horizontal partitions (2t+1).
func (h *Horizontal) Partitions() int { return 2*len(h.pivots) + 1 }

// RegionOf returns the region index of a record length: the number of
// pivots ≤ l.
func (h *Horizontal) RegionOf(l int) int {
	return sort.Search(len(h.pivots), func(i int) bool { return h.pivots[i] > l })
}

// Assign returns every horizontal partition a record of length l joins in:
// its region, plus up to two adjacent boundary partitions whose length
// window contains l. Length-0 records are assigned nowhere.
func (h *Horizontal) Assign(l int) []Assignment {
	return h.AssignAppend(nil, l)
}

// AssignAppend appends what Assign returns to dst and returns the extended
// slice, so a caller can reuse one buffer across records.
func (h *Horizontal) AssignAppend(dst []Assignment, l int) []Assignment {
	if l <= 0 {
		return dst
	}
	region := h.RegionOf(l)
	dst = append(dst, Assignment{Partition: region, Role: RoleRegion})
	t := len(h.pivots)
	// Boundary i sits between regions i−1 and i (pivot index i−1).
	// As the short side: record in region i−1 with l ≥ MinLen(L_i).
	if region < t {
		pivot := h.pivots[region]
		if l >= h.fn.MinLen(h.theta, pivot) {
			dst = append(dst, Assignment{Partition: t + 1 + region, Role: RoleSmall})
		}
	}
	// As the long side: record in region i with l ≤ MaxLen(L_i).
	if region > 0 {
		pivot := h.pivots[region-1]
		if l <= h.fn.MaxLen(h.theta, pivot) {
			dst = append(dst, Assignment{Partition: t + region, Role: RoleLarge})
		}
	}
	return dst
}

// Joinable reports whether two records with the given roles may be paired
// inside one horizontal partition without duplicating results: region
// partitions join everything, boundary partitions only small × large.
func Joinable(a, b Role) bool {
	if a == RoleRegion && b == RoleRegion {
		return true
	}
	return (a == RoleSmall && b == RoleLarge) || (a == RoleLarge && b == RoleSmall)
}

// NoHorizontal returns the degenerate single-partition scheme used by
// FS-Join-V (vertical partitioning only).
func NoHorizontal(fn similarity.Func, theta float64) *Horizontal {
	return &Horizontal{fn: fn, theta: theta}
}
