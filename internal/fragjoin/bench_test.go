package fragjoin

// Kernel micro-benchmarks for measuring while working on a kernel; the
// repository's benchmark (bench/README.md) is what performance claims are
// judged against. Kernel output is pinned by this package's equivalence
// tests, the brute-force differential tests above it and the golden
// fixtures.

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"fsjoin/internal/filters"
	"fsjoin/internal/partition"
	"fsjoin/internal/similarity"
	"fsjoin/internal/tokens"
)

// benchFragment builds one realistic fragment: n segments whose tokens are
// dense dictionary ranks confined to a vertical range of the given span.
func benchFragment(n, span int, seed int64) []Seg {
	rng := rand.New(rand.NewSource(seed))
	segs := make([]Seg, 0, n)
	for i := 0; i < n; i++ {
		segLen := rng.Intn(12) + 2
		seen := map[tokens.ID]bool{}
		toks := make([]tokens.ID, 0, segLen)
		for len(toks) < segLen {
			t := tokens.ID(rng.Intn(span))
			if !seen[t] {
				seen[t] = true
				toks = append(toks, t)
			}
		}
		sort.Slice(toks, func(a, b int) bool { return toks[a] < toks[b] })
		head, tail := rng.Intn(12), rng.Intn(12)
		segs = append(segs, Seg{
			RID:    int32(i),
			StrLen: int32(segLen + head + tail),
			Head:   int32(head),
			Tail:   int32(tail),
			Tokens: toks,
		})
	}
	return segs
}

func benchParams(m Method) Params {
	return Params{Fn: similarity.Jaccard, Theta: 0.8, Filters: filters.All, Method: m}
}

// BenchmarkKernels runs each kernel on four shapes of one fragment — all
// region segments of one origin, an R-S region fragment (every other segment
// on the S side), a boundary fragment (every other segment small, the rest
// large) and a spread one (region segments over about 250 000 ranks, as in
// the one vertical fragment of a join of many short records) — with the
// bitmap signature filter on ("bitmap", the default) and forced off
// ("nobitmap"), each through a one-shot Join and through one Workspace
// reused across iterations ("/reused", as a filtering reduce task runs its
// fragments).
func BenchmarkKernels(b *testing.B) {
	region, spread := benchFragment(600, 4096, 1), benchFragment(600, 250000, 1)
	rs, boundary := slices.Clone(region), slices.Clone(region)
	for i := range region {
		rs[i].Origin = uint8(i % 2)
		boundary[i].Role = partition.RoleSmall + partition.Role(i%2)
	}
	for _, frag := range []struct {
		name string
		segs []Seg
		rs   bool
	}{{"region", region, false}, {"rs", rs, true}, {"boundary", boundary, false}, {"spread", spread, false}} {
		for _, m := range []Method{Index, Prefix, Loop} {
			sink := 0
			emit := func(a, bs *Seg, c int) { sink += c }
			for _, arm := range []struct {
				name string
				mode filters.BitmapMode
			}{{"bitmap", filters.BitmapOn}, {"nobitmap", filters.BitmapOff}} {
				p := benchParams(m)
				p.RS = frag.rs
				p.Bitmap = filters.BitmapConfig{Mode: arm.mode}
				name := frag.name + "/" + m.String() + "/" + arm.name
				b.Run(name, func(b *testing.B) {
					b.ReportAllocs()
					cp := make([]Seg, len(frag.segs))
					for i := 0; i < b.N; i++ {
						copy(cp, frag.segs)
						Join(nil, cp, p, emit)
					}
				})
				b.Run(name+"/reused", func(b *testing.B) {
					b.ReportAllocs()
					cp := make([]Seg, len(frag.segs))
					var w Workspace
					for i := 0; i < b.N; i++ {
						copy(cp, frag.segs)
						w.Join(nil, cp, p, emit)
					}
				})
			}
		}
	}
}
