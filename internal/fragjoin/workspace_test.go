package fragjoin

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"fsjoin/internal/filters"
	"fsjoin/internal/mapreduce"
	"fsjoin/internal/similarity"
	"fsjoin/internal/tokens"
)

// newPostings returns a fresh index sized for plan; the kernels rebuild
// the one their Workspace keeps instead.
func newPostings(segs []Seg, plan []segPlan) *postings {
	p := &postings{}
	p.build(segs, plan)
	return p
}

// wideFragment is randomFragment with longer segments over a wider token
// range: packed bitmaps of several words each, enough of them to outgrow
// the bitmap arena's first capacity.
func wideFragment(rng *rand.Rand, n int, rs bool) []Seg {
	segs := randomFragment(rng, n, rs)
	for i := range segs {
		s := &segs[i]
		seen := map[tokens.ID]bool{}
		s.Tokens = s.Tokens[:0]
		for l := rng.Intn(40) + 20; len(s.Tokens) < l; {
			if t := tokens.ID(rng.Intn(1500)); !seen[t] {
				seen[t] = true
				s.Tokens = append(s.Tokens, t)
			}
		}
		sort.Slice(s.Tokens, func(a, b int) bool { return s.Tokens[a] < s.Tokens[b] })
		s.StrLen = int32(len(s.Tokens)) + s.Head + s.Tail
	}
	return segs
}

// workspaceFragments is a shuffled sequence of fragments that grow and
// shrink — empty, one segment, up to 90 — with two past the sparse-postings
// threshold and two with wide packed bitmaps. randomFragment mixes region,
// small and large roles, so every fragment holds boundary pairs.
func workspaceFragments(rng *rand.Rand, rs bool) [][]Seg {
	var frags [][]Seg
	for _, n := range []int{0, 1, 3, 12, 40, 90, 25, 2, 60, 1, 0, 8} {
		frags = append(frags, randomFragment(rng, n, rs))
	}
	for _, n := range []int{30, 12} {
		sparse := randomFragment(rng, n, rs)
		for i := range sparse {
			for k := range sparse[i].Tokens {
				sparse[i].Tokens[k] *= 50000
			}
		}
		frags = append(frags, sparse)
	}
	frags = append(frags, wideFragment(rng, 70, rs), wideFragment(rng, 20, rs))
	rng.Shuffle(len(frags), func(a, b int) { frags[a], frags[b] = frags[b], frags[a] })
	return frags
}

// joinWith runs one fragment through w and returns its emissions in order.
func joinWith(w *Workspace, segs []Seg, p Params) []emitted {
	var out []emitted
	w.Join(nil, slices.Clone(segs), p, func(a, b *Seg, c int) {
		out = append(out, emitted{a.RID, b.RID, c})
	})
	return out
}

// fill sets s to v up to its capacity.
func fill[T any](s []T, v T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = v
	}
}

// poison overwrites everything a Workspace keeps between joins, to
// capacity, with values no finished join leaves behind: set touched bits,
// current stamps, a stamp generation about to wrap, indexed plans, built
// bitmaps, filled postings and a sparse map in use.
func poison(w *Workspace) {
	j := &w.j
	fill(j.counts, 7)
	fill(j.stamp, 1)
	fill(j.touched, ^uint64(0))
	fill(j.arena, ^uint64(0))
	fill(j.sigs, filters.Signature{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)})
	fill(j.plans, segPlan{probe: 1, indexed: true})
	fill(j.bitmaps, segBitmap{state: 1, words: []uint64{^uint64(0)}})
	fill(j.inv.starts, 1)
	fill(j.inv.lens, 1)
	fill(j.inv.flat, 0)
	// A generation that wraps to the cleared stamps' 0 in a join's second
	// probe round, if it is not restarted.
	j.gen, j.sigW, j.loWord, j.hiWord = math.MaxUint32-1, 4, 0, len(j.touched)-1
	if j.inv.sparse == nil {
		j.inv.sparse = map[uint64][]int32{}
	}
	for c := uint8(0); c <= numClasses; c++ {
		j.inv.sparse[sparseKey(1, c)] = []int32{0}
	}
	j.inv.mapped = true
	j.n = counters{comparisons: 9}
}

// TestWorkspaceReuseInvisible: one Workspace run over a shuffled sequence
// of fragments emits, in order, what a fresh Join emits per fragment, and
// counts what it counts — for every kernel, self and R-S, the paper's
// prefix and the lossless one, the bitmap filter on and off. Halfway, a
// join is cancelled mid-fragment on the same Workspace, and before every
// third fragment the Workspace's arrays are poisoned: what either left
// behind must not show.
func TestWorkspaceReuseInvisible(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, rs := range []bool{false, true} {
		frags := workspaceFragments(rand.New(rand.NewSource(11)), rs)
		for _, m := range []Method{Loop, Index, Prefix} {
			for _, paper := range []bool{false, true} {
				for _, fset := range []filters.Set{0, filters.All} {
					for _, bm := range []filters.BitmapMode{filters.BitmapOn, filters.BitmapOff} {
						p := Params{Fn: similarity.Jaccard, Theta: 0.5, Filters: fset, Method: m, RS: rs,
							PaperPrefix: paper, Bitmap: filters.BitmapConfig{Mode: bm}}
						label := fmt.Sprintf("rs %v, %v, paper %v, filters %v, bitmap %v", rs, m, paper, fset, bm)
						var w Workspace
						for f, segs := range frags {
							if f == len(frags)/2 {
								func() {
									defer func() { _ = recover() }()
									// An unfiltered self-join, so the kernel polls past the
									// cancellation stride.
									pc := p
									pc.Theta, pc.Filters, pc.Bitmap.Mode, pc.RS = 0.3, 0, filters.BitmapOff, false
									mctx := &mapreduce.Context{Job: mapreduce.Config{Context: cancelled}}
									w.Join(mctx, cancelSegs(120), pc, func(a, b *Seg, c int) {})
									t.Fatalf("%s: cancelled join ran to the end", label)
								}()
							}
							if f%3 == 2 {
								poison(&w)
							}
							got := joinWith(&w, segs, p)
							if want := collectRaw(segs, p); !slices.Equal(got, want) {
								t.Fatalf("%s, fragment %d (%d segments): reused workspace emitted\n%v\nfresh Join\n%v",
									label, f, len(segs), got, want)
							}
							var fresh Workspace
							joinWith(&fresh, segs, p)
							if w.j.n != fresh.j.n {
								t.Fatalf("%s, fragment %d: reused workspace counted %+v, fresh %+v", label, f, w.j.n, fresh.j.n)
							}
						}
					}
				}
			}
		}
	}
}

// TestWorkspaceAllocationFree: a Workspace that has joined a fragment
// joins it, or a fragment of a prefix of its segments, without allocating.
// No filter is on, so every kernel intersects every pair it meets and the
// packed bitmaps of the wide fragment outgrow the arena's first capacity
// while warming. The sparse-map postings fallback is left out: its lists
// are appended into a map cleared per fragment.
func TestWorkspaceAllocationFree(t *testing.T) {
	for _, rs := range []bool{false, true} {
		rng := rand.New(rand.NewSource(5))
		for _, big := range [][]Seg{randomFragment(rng, 90, rs), wideFragment(rng, 70, rs)} {
			for _, m := range []Method{Loop, Index, Prefix} {
				for _, bm := range []filters.BitmapMode{filters.BitmapOn, filters.BitmapOff} {
					p := Params{Fn: similarity.Jaccard, Theta: 0.5, Method: m, RS: rs,
						Bitmap: filters.BitmapConfig{Mode: bm}}
					var w Workspace
					sink := 0
					emit := func(a, b *Seg, c int) { sink += c }
					cp := make([]Seg, len(big))
					for _, n := range []int{len(big), len(big) / 2} {
						copy(cp, big)
						w.Join(nil, cp[:len(big)], p, emit) // warm on the whole fragment
						allocs := testing.AllocsPerRun(20, func() {
							copy(cp, big[:n])
							w.Join(nil, cp[:n], p, emit)
						})
						if allocs != 0 {
							t.Errorf("rs %v, %v, bitmap %v, %d of %d segments: %v allocations per join, want 0",
								rs, m, bm, n, len(big), allocs)
						}
					}
					if sink == 0 {
						t.Fatalf("rs %v, %v: nothing emitted", rs, m)
					}
				}
			}
		}
	}
}
