// Package filters implements the paper's four pruning filters (Section V-A):
// string length filtering (StrL, Lemma 1), segment length filtering (SegL,
// Lemma 2), segment intersection filtering (SegI, Lemma 3) and segment
// difference filtering (SegD, Lemma 4), plus the lossless segment prefix
// filter used by the prefix join (DESIGN.md §3).
//
// Every filter is safe per fragment: each inequality replaces the unknown
// cross-fragment quantities with bounds that hold unconditionally
// (|A∩B| ≤ min(|A|,|B|), |A−B|+|B−A| ≥ abs(|A|−|B|)), so a pair pruned in
// one fragment is guaranteed dissimilar globally and similar pairs are never
// pruned anywhere.
package filters

import (
	"math"
	"strings"

	"fsjoin/internal/similarity"
)

// Set is a bitmask of enabled filters.
type Set uint8

// The individual filters. Prefix selects the prefix-based index join's
// pruning inside candidate generation; the others prune candidate pairs.
const (
	StrL Set = 1 << iota
	SegL
	SegI
	SegD
	Prefix
)

// All enables every filter — the paper's "All" configuration.
const All = StrL | SegL | SegI | SegD | Prefix

// Has reports whether f is enabled in s.
func (s Set) Has(f Set) bool { return s&f != 0 }

// String lists the enabled filters.
func (s Set) String() string {
	if s == 0 {
		return "none"
	}
	var parts []string
	for _, e := range [...]struct {
		f    Set
		name string
	}{{StrL, "StrL"}, {SegL, "SegL"}, {SegI, "SegI"}, {SegD, "SegD"}, {Prefix, "Prefix"}} {
		if s.Has(e.f) {
			parts = append(parts, e.name)
		}
	}
	return strings.Join(parts, "+")
}

// SegMeta carries the per-segment quantities the filters consume: the
// segment length |Seg_i^s|, the record length |s|, and the head/tail token
// counts |s^h| and |s^e|.
type SegMeta struct {
	SegLen int
	StrLen int
	Head   int
	Tail   int
}

// StrLPrune implements Lemma 1: prune when the shorter record is below the
// similarity function's minimum partner length of the longer one
// (|s| < θ·|t| for Jaccard).
func StrLPrune(fn similarity.Func, theta float64, ls, lt int) bool {
	if ls > lt {
		ls, lt = lt, ls
	}
	return ls < fn.MinLen(theta, lt)
}

// SegLPrune implements Lemma 2: prune when even the best case
// min(|Seg_i^s|, |Seg_i^t|) segment overlap plus the head/tail bounds cannot
// reach the required overlap θ/(1+θ)·(|s|+|t|).
func SegLPrune(fn similarity.Func, theta float64, s, t SegMeta) bool {
	bound := fn.MinOverlapReal(theta, s.StrLen, t.StrLen) -
		float64(min(s.Head, t.Head)) - float64(min(s.Tail, t.Tail))
	return float64(min(s.SegLen, t.SegLen)) < bound-fpEps
}

// SegIPrune implements Lemma 3: prune when the actual segment intersection c
// plus the head/tail bounds cannot reach the required overlap.
func SegIPrune(fn similarity.Func, theta float64, c int, s, t SegMeta) bool {
	bound := fn.MinOverlapReal(theta, s.StrLen, t.StrLen) -
		float64(min(s.Head, t.Head)) - float64(min(s.Tail, t.Tail))
	return float64(c) < bound-fpEps
}

// SegDPrune implements Lemma 4: prune when the segment symmetric difference
// plus the head/tail length gaps already exceeds the largest symmetric
// difference a similar pair may have, (1−θ)/(1+θ)·(|s|+|t|) for Jaccard.
// The segment symmetric difference is |Seg^s|+|Seg^t|−2c.
func SegDPrune(fn similarity.Func, theta float64, c int, s, t SegMeta) bool {
	symdiff := float64(s.SegLen + t.SegLen - 2*c)
	symdiff += math.Abs(float64(s.Head - t.Head))
	symdiff += math.Abs(float64(s.Tail - t.Tail))
	total := s.StrLen + t.StrLen
	allowed := float64(total) - 2*fn.MinOverlapReal(theta, s.StrLen, t.StrLen)
	return symdiff > allowed+fpEps
}

// SegPrefixLen returns the lossless segment prefix length for the prefix
// join (DESIGN.md §3): any partner t with sim ≥ θ shares at least
// L = ⌈minOverlapAnyPartner(|s|)⌉ − |s^h| − |s^e| tokens inside this
// fragment, so the smallest common fragment token must fall within the first
// |Seg| − max(1, L) + 1 segment tokens. When L ≤ 0 the whole segment is the
// prefix (lossless fallback).
func SegPrefixLen(fn similarity.Func, theta float64, s SegMeta) int {
	if s.SegLen == 0 {
		return 0
	}
	l := int(math.Ceil(fn.MinOverlapAnyPartner(theta, s.StrLen)-fpEps)) - s.Head - s.Tail
	if l < 1 {
		l = 1
	}
	p := s.SegLen - l + 1
	if p < 1 {
		p = 1
	}
	if p > s.SegLen {
		p = s.SegLen
	}
	return p
}

// SegPrefixLenNaive returns the segment prefix length the paper's Section
// V-A describes when read literally: the classic prefix-filter length
// applied to the segment itself, |Seg| − ⌈θ·|Seg|⌉ + 1. This is much more
// aggressive than SegPrefixLen — it collapses candidate generation in dense
// fragments — but it is only guaranteed complete when each co-occurring
// segment pair of a similar record pair is itself θ-similar, which real
// near-duplicate data approximates but adversarial inputs violate. It is
// offered as an explicit option; the default prefix is the lossless one.
func SegPrefixLenNaive(theta float64, s SegMeta) int {
	if s.SegLen == 0 {
		return 0
	}
	p := s.SegLen - int(math.Ceil(theta*float64(s.SegLen)-fpEps)) + 1
	if p < 1 {
		p = 1
	}
	if p > s.SegLen {
		p = s.SegLen
	}
	return p
}

// fpEps absorbs floating-point noise so filters never prune a pair that
// sits exactly on the threshold boundary.
const fpEps = 1e-9
