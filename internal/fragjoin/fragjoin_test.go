package fragjoin

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"fsjoin/internal/filters"
	"fsjoin/internal/mapreduce"
	"fsjoin/internal/partition"
	"fsjoin/internal/similarity"
	"fsjoin/internal/spill"
	"fsjoin/internal/tokens"
)

// randomFragment builds one fragment's segments from random records split
// at a fixed pivot, all metadata consistent.
func randomFragment(rng *rand.Rand, n int, rs bool) []Seg {
	segs := make([]Seg, 0, n)
	for i := 0; i < n; i++ {
		segLen := rng.Intn(8) + 1
		head := rng.Intn(10)
		tail := rng.Intn(10)
		toks := make([]tokens.ID, 0, segLen)
		seen := map[tokens.ID]bool{}
		for len(toks) < segLen {
			t := tokens.ID(rng.Intn(25))
			if !seen[t] {
				seen[t] = true
				toks = append(toks, t)
			}
		}
		sort.Slice(toks, func(a, b int) bool { return toks[a] < toks[b] })
		var origin uint8
		if rs && rng.Intn(2) == 0 {
			origin = 1
		}
		role := partition.RoleRegion
		switch rng.Intn(3) {
		case 1:
			role = partition.RoleSmall
		case 2:
			role = partition.RoleLarge
		}
		segs = append(segs, Seg{
			RID:    int32(i),
			Origin: origin,
			Role:   role,
			StrLen: int32(segLen + head + tail),
			Head:   int32(head),
			Tail:   int32(tail),
			Tokens: toks,
		})
	}
	return segs
}

type emitted struct {
	a, b int32
	c    int
}

// collectRaw returns the partials in the order the kernel emitted them.
func collectRaw(segs []Seg, p Params) []emitted {
	// Copy segments: Join sorts its input.
	cp := make([]Seg, len(segs))
	copy(cp, segs)
	var out []emitted
	Join(nil, cp, p, func(a, b *Seg, c int) {
		out = append(out, emitted{a.RID, b.RID, c})
	})
	return out
}

func byAB(x, y emitted) int { return cmp.Or(cmp.Compare(x.a, y.a), cmp.Compare(x.b, y.b)) }
func byBA(x, y emitted) int { return cmp.Or(cmp.Compare(x.b, y.b), cmp.Compare(x.a, y.a)) }

// collect returns the partials sorted by (a, b).
func collect(segs []Seg, p Params) []emitted {
	out := collectRaw(segs, p)
	slices.SortFunc(out, byAB)
	return out
}

// filterSets are the filter combinations the kernel tests run under.
var filterSets = []filters.Set{0, filters.StrL, filters.All &^ filters.Prefix, filters.All}

// sweep calls f with base under every filter set, bitmap filter on and off.
func sweep(base Params, f func(label string, p Params)) {
	for _, fset := range filterSets {
		for _, bm := range []filters.BitmapMode{filters.BitmapOn, filters.BitmapOff} {
			p := base
			p.Filters, p.Bitmap = fset, filters.BitmapConfig{Mode: bm}
			f(fmt.Sprintf("filters %v, bitmap %v", fset, bm), p)
		}
	}
}

// checkLoopIndex: Loop and Index emit identical partials, each in its own
// fixed order. With unique RIDs the emitted a is always the earlier segment
// of the (Origin, RID) processing order and b the later one, so Loop
// (outer earlier, inner later) emits sorted by (a, b) and the
// probe-then-insert kernels (outer later, candidates ascending) by (b, a).
func checkLoopIndex(t *testing.T, label string, segs []Seg, p Params) int {
	t.Helper()
	p.Method = Loop
	loop := collectRaw(segs, p)
	p.Method = Index
	index := collectRaw(segs, p)
	if !slices.IsSortedFunc(loop, byAB) {
		t.Fatalf("%s: loop emission order not (a, b): %v", label, loop)
	}
	if !slices.IsSortedFunc(index, byBA) {
		t.Fatalf("%s: index emission order not (b, a): %v", label, index)
	}
	slices.SortFunc(index, byAB)
	if !reflect.DeepEqual(loop, index) {
		t.Fatalf("%s: loop vs index diverge:\n%v\n%v", label, loop, index)
	}
	return len(loop)
}

// checkPrefixJustified: the lossless Prefix kernel emits, in Index's order,
// a subset of Index's partials with exact counts, and every skipped pair has
// a fragment overlap below the guaranteed minimum of any θ-similar pair
// (c < max(1, L(s), L(t))) — so final join results are unaffected.
func checkPrefixJustified(t *testing.T, label string, segs []Seg, p Params) {
	t.Helper()
	p.Method = Index
	all := collect(segs, p)
	p.Method = Prefix
	raw := collectRaw(segs, p)
	if !slices.IsSortedFunc(raw, byBA) {
		t.Fatalf("%s: prefix emission order not (b, a): %v", label, raw)
	}
	found := map[[2]int32]int{}
	for _, e := range raw {
		found[[2]int32{e.a, e.b}] = e.c
	}
	meta := map[int32]Seg{}
	for _, s := range segs {
		meta[s.RID] = s
	}
	required := func(s Seg) int {
		l := int(mathCeil(p.Fn.MinOverlapAnyPartner(p.Theta, int(s.StrLen)))) -
			int(s.Head) - int(s.Tail)
		return max(l, 1)
	}
	for _, e := range all {
		if c, ok := found[[2]int32{e.a, e.b}]; ok {
			if c != e.c {
				t.Fatalf("%s: prefix count %d != index count %d for (%d,%d)", label, c, e.c, e.a, e.b)
			}
			delete(found, [2]int32{e.a, e.b})
			continue
		}
		if need := max(required(meta[e.a]), required(meta[e.b])); e.c >= need {
			t.Fatalf("%s: prefix missed pair (%d,%d) with c=%d ≥ required %d (θ=%v)",
				label, e.a, e.b, e.c, need, p.Theta)
		}
	}
	if len(found) != 0 {
		t.Fatalf("%s: prefix emitted pairs index did not: %v", label, found)
	}
}

// TestLoopIndexEquivalent: Loop and Index emit identical partials under
// every filter set, bitmap mode and join mode, on fragments that mix all
// three roles and (R-S) both origins.
func TestLoopIndexEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		rs := trial%2 == 0
		segs := randomFragment(rng, rng.Intn(20)+2, rs)
		theta := float64(rng.Intn(5)+5) / 10
		sweep(Params{Fn: similarity.Jaccard, Theta: theta, RS: rs}, func(label string, p Params) {
			checkLoopIndex(t, fmt.Sprintf("trial %d, %s", trial, label), segs, p)
		})
	}
}

// TestPrefixSubsetWithJustifiedMisses runs checkPrefixJustified over the
// same sweep, self and R-S.
func TestPrefixSubsetWithJustifiedMisses(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		rs := trial%2 == 1
		segs := randomFragment(rng, rng.Intn(20)+2, rs)
		theta := float64(rng.Intn(5)+5) / 10
		sweep(Params{Fn: similarity.Jaccard, Theta: theta, RS: rs}, func(label string, p Params) {
			checkPrefixJustified(t, fmt.Sprintf("trial %d, %s", trial, label), segs, p)
		})
	}
}

// TestDegenerateFragments: fragments in which a whole class is missing, or
// the index has nothing or almost nothing in it, emit what Loop emits.
func TestDegenerateFragments(t *testing.T) {
	each := func(f func(s *Seg)) func([]Seg) []Seg {
		return func(segs []Seg) []Seg {
			for i := range segs {
				f(&segs[i])
			}
			return segs
		}
	}
	for _, tc := range []struct {
		name string
		// shape edits a 40-segment randomFragment in place.
		shape func([]Seg) []Seg
		// pairs says whether the fragment must still emit under rs / self.
		selfPairs, rsPairs bool
	}{
		{"only R", each(func(s *Seg) { s.Origin = 0 }), true, false},
		{"only S", each(func(s *Seg) { s.Origin = 1 }), true, false},
		{"only small", each(func(s *Seg) { s.Role = partition.RoleSmall }), false, false},
		{"only large", each(func(s *Seg) { s.Role = partition.RoleLarge }), false, false},
		{"one segment", func(segs []Seg) []Seg { return segs[:1] }, false, false},
		{"a segment with no tokens", func(segs []Seg) []Seg {
			for _, i := range []int{0, 7, len(segs) - 1} {
				segs[i].Tokens = nil
				segs[i].StrLen = max(segs[i].Head+segs[i].Tail, 1)
			}
			return segs
		}, true, true},
		{"R and S token ranges disjoint", each(func(s *Seg) {
			if s.Origin == 1 {
				for i := range s.Tokens {
					s.Tokens[i] += 1000
				}
			}
		}), true, false},
		{"tokens spread ×50 000", spread, true, true},
	} {
		for _, rs := range []bool{false, true} {
			segs := tc.shape(randomFragment(rand.New(rand.NewSource(7)), 40, rs))
			if tc.name == "tokens spread ×50 000" {
				// The lists are as many as the distinct tokens, not the ranks.
				distinct := map[tokens.ID]bool{}
				for _, s := range segs {
					for _, tok := range s.Tokens {
						distinct[tok] = true
					}
				}
				inv := newPostings(segs, indexAll(segs, func(int) uint8 { return 0 }))
				if len(inv.starts) != len(distinct) {
					t.Fatalf("%s: %d lists for %d distinct tokens", tc.name, len(inv.starts), len(distinct))
				}
			}
			emitted := 0
			sweep(Params{Fn: similarity.Jaccard, Theta: 0.6, RS: rs}, func(label string, p Params) {
				label = fmt.Sprintf("%s, rs %v, %s", tc.name, rs, label)
				emitted += checkLoopIndex(t, label, segs, p)
				checkPrefixJustified(t, label, segs, p)
			})
			if want := (rs && tc.rsPairs) || (!rs && tc.selfPairs); (emitted > 0) != want {
				t.Fatalf("%s, rs %v: emitted %d partials, want some: %v", tc.name, rs, emitted, want)
			}
		}
	}
}

// TestBitmapPassedIsComparisons: with joinability in the index layout, the
// pairs the bitmap filter lets through at their first shared posting are
// exactly the candidates drain compares — no registered candidate is
// unpairable when no two segments share an (Origin, RID).
func TestBitmapPassedIsComparisons(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 60; trial++ {
		rs := trial%2 == 0
		segs := randomFragment(rng, rng.Intn(40)+2, rs)
		for _, m := range []Method{Index, Prefix} {
			for _, fset := range filterSets {
				ctr := joinCounters(t, segs, Params{
					Fn: similarity.Jaccard, Theta: 0.3 + rng.Float64()*0.6, Filters: fset, Method: m, RS: rs,
					Bitmap: filters.BitmapConfig{Mode: filters.BitmapOn},
				})
				passed, cmps := ctr.Get(filters.CtrBitmapPassed), ctr.Get(CtrComparisons)
				if passed != cmps {
					t.Fatalf("trial %d %v filters %v: bitmap.passed %d != comparisons %d", trial, m, fset, passed, cmps)
				}
			}
		}
	}
}

// indexAll plans every token of every segment into the index, segment i
// under class(i).
func indexAll(segs []Seg, class func(i int) uint8) []segPlan {
	plan := make([]segPlan, len(segs))
	for i := range segs {
		plan[i] = segPlan{class: class(i), probe: int32(len(segs[i].Tokens)), indexed: true}
	}
	return plan
}

// TestPostingsGetAnyTokenAnyClass: a segment probes another class's lists,
// so get must answer tokens and classes nothing was indexed under — over a
// dense rank range and a spread one.
func TestPostingsGetAnyTokenAnyClass(t *testing.T) {
	for _, stride := range []tokens.ID{1, 100000} {
		// Class 0 is indexed over tokens 10..20 (× stride), class 1 never.
		segs := []Seg{
			{Tokens: []tokens.ID{10 * stride, 15 * stride}},
			{Tokens: []tokens.ID{15 * stride, 20 * stride}},
			{Tokens: []tokens.ID{5 * stride, 15 * stride, 30 * stride}},
		}
		plan := indexAll(segs, func(i int) uint8 { return uint8(i / 2) })
		plan[2].indexed = false
		inv := newPostings(segs, plan)
		// Three indexed tokens, one row: three lists whatever the stride.
		if len(inv.ids) != int(10*stride)+1 || len(inv.starts) != 3 {
			t.Fatalf("stride %d: %d ids, %d lists", stride, len(inv.ids), len(inv.starts))
		}
		for i := range segs[:2] {
			for _, tok := range segs[i].Tokens {
				inv.add(tok, 0, int32(i))
			}
		}
		for _, tc := range []struct {
			tok  tokens.ID
			c    uint8
			want []int32
		}{
			{15 * stride, 0, []int32{0, 1}},
			{20 * stride, 0, []int32{1}},
			{12 * stride, 0, nil},       // inside the span, never indexed
			{5 * stride, 0, nil},        // below base
			{0, 0, nil},                 // far below base
			{30 * stride, 0, nil},       // past the span
			{15 * stride, 1, nil},       // a class with no row
			{15 * stride, noClass, nil}, // a segment nothing joins
			{15 * stride, 5, nil},       // a class absent from the fragment
			{15*stride + 1<<31, 0, nil}, // token ids near the top of the range
		} {
			if got := inv.get(tc.tok, tc.c); !slices.Equal(got, tc.want) {
				t.Errorf("stride %d: get(%d, class %d) = %v, want %v", stride, tc.tok, tc.c, got, tc.want)
			}
		}
	}

	// Two indexed classes double the rows of local ids, not of ranks: 500
	// distinct tokens over 40 000 ranks take 2×500 lists.
	var segs []Seg
	for i := 0; i < 30; i++ {
		toks := make([]tokens.ID, 500)
		for k := range toks {
			toks[k] = tokens.ID(k * 80)
		}
		segs = append(segs, Seg{Tokens: toks})
	}
	inv := newPostings(segs, indexAll(segs, func(i int) uint8 { return uint8(i % 2) }))
	if len(inv.ids) != 499*80+1 || len(inv.starts) != 2*500 {
		t.Fatalf("two-class fragment: %d ids, %d lists", len(inv.ids), len(inv.starts))
	}
	for i := range segs {
		for _, tok := range segs[i].Tokens {
			inv.add(tok, uint8(i%2), int32(i))
		}
	}
	for c := uint8(0); c < 2; c++ {
		want := []int32{int32(c), int32(c) + 2}
		if got := inv.get(80, c); len(got) != 15 || !slices.Equal(got[:2], want) {
			t.Fatalf("two-class fragment: get(80, class %d) = %v", c, got)
		}
	}
}

func TestEmittedCountsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	segs := randomFragment(rng, 15, false)
	out := collect(segs, Params{Fn: similarity.Jaccard, Theta: 0.5, Method: Loop})
	if len(out) == 0 {
		t.Fatal("no pairs emitted")
	}
	byRID := map[int32]Seg{}
	for _, s := range segs {
		byRID[s.RID] = s
	}
	for _, e := range out {
		want := tokens.Intersect(byRID[e.a].Tokens, byRID[e.b].Tokens)
		if e.c != want {
			t.Fatalf("pair (%d,%d): count %d, want %d", e.a, e.b, e.c, want)
		}
		if e.a >= e.b {
			t.Fatalf("self-join pair not ordered: (%d,%d)", e.a, e.b)
		}
	}
}

func TestRSJoinOnlyCrossOrigin(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	segs := randomFragment(rng, 20, true)
	origin := map[int32]uint8{}
	for _, s := range segs {
		origin[s.RID] = s.Origin
	}
	out := collect(segs, Params{Fn: similarity.Jaccard, Theta: 0.5, Method: Index, RS: true})
	for _, e := range out {
		if origin[e.a] != 0 || origin[e.b] != 1 {
			t.Fatalf("pair (%d,%d) not oriented R,S: origins %d,%d",
				e.a, e.b, origin[e.a], origin[e.b])
		}
	}
}

func TestRolesRespected(t *testing.T) {
	mk := func(rid int32, role partition.Role, toks ...tokens.ID) Seg {
		return Seg{RID: rid, Role: role, StrLen: int32(len(toks)), Tokens: toks}
	}
	segs := []Seg{
		mk(0, partition.RoleSmall, 1, 2),
		mk(1, partition.RoleSmall, 1, 2),
		mk(2, partition.RoleLarge, 1, 2),
	}
	want := []emitted{{0, 2, 2}, {1, 2, 2}}
	for _, m := range []Method{Loop, Index, Prefix} {
		out := collect(segs, Params{Fn: similarity.Jaccard, Theta: 0.1, Method: m})
		if !reflect.DeepEqual(out, want) {
			t.Fatalf("%v: boundary join = %v, want %v", m, out, want)
		}
	}
}

func TestSameRIDNeverPaired(t *testing.T) {
	segs := []Seg{
		{RID: 5, StrLen: 2, Tokens: []tokens.ID{1, 2}},
		{RID: 5, StrLen: 2, Tokens: []tokens.ID{1, 2}},
	}
	// The class layout lets the two meet on a posting list; pairable in
	// drain is what refuses them.
	for _, m := range []Method{Loop, Index, Prefix} {
		out := collect(segs, Params{Fn: similarity.Jaccard, Theta: 0.1, Method: m})
		if len(out) != 0 {
			t.Fatalf("%v: self pair emitted: %v", m, out)
		}
	}
}

// joinCounters runs Join as the reduce task of a real MapReduce job, over
// the segments shuffled under one key, and returns the job's counters.
func joinCounters(t *testing.T, segs []Seg, p Params) *mapreduce.Counters {
	t.Helper()
	in := make([]mapreduce.KV, len(segs))
	for i, s := range segs {
		in[i] = mapreduce.KV{Key: "frag", Value: s}
	}
	res, err := mapreduce.Run(mapreduce.Config{Name: "frag-test"},
		in, mapreduce.IdentityMapper,
		mapreduce.ReduceFunc(func(ctx *mapreduce.Context, key string, values []any) {
			ss := make([]Seg, len(values))
			for i, v := range values {
				ss[i] = v.(Seg)
			}
			Join(ctx, ss, p, func(a, b *Seg, c int) {})
		}))
	if err != nil {
		t.Fatal(err)
	}
	return res.Counters
}

func TestCountersTrackPruning(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	segs := randomFragment(rng, 30, false)
	run := func(bm filters.BitmapMode) *mapreduce.Counters {
		return joinCounters(t, segs, Params{
			Fn: similarity.Jaccard, Theta: 0.9, Filters: filters.All, Method: Prefix,
			Bitmap: filters.BitmapConfig{Mode: bm},
		})
	}
	// With the bitmap filter off every discovered candidate reaches drain.
	if run(filters.BitmapOff).Get(CtrComparisons) == 0 {
		t.Fatal("no comparisons counted")
	}
	// With it on the pairs are accounted as built/rejected/passed instead.
	on := run(filters.BitmapOn)
	if on.Get(filters.CtrBitmapBuilt) == 0 {
		t.Fatal("no signatures built")
	}
	if on.Get(filters.CtrBitmapRejected)+on.Get(filters.CtrBitmapPassed) == 0 {
		t.Fatal("no candidates screened by the bitmap filter")
	}
}

func TestMethodString(t *testing.T) {
	if Loop.String() != "loop" || Index.String() != "index" || Prefix.String() != "prefix" {
		t.Fatal("method names wrong")
	}
	if Method(9).String() != "Method(9)" {
		t.Fatal("unknown method name")
	}
}

// TestSegSizeBytes: a segment is accounted at its registered size — rid,
// origin and role, three lengths, and four bytes a token.
func TestSegSizeBytes(t *testing.T) {
	var sz spill.Sizer
	s := Seg{Tokens: []tokens.ID{1, 2, 3}}
	if got := sz.Size(s); got != 4+2+12+12 {
		t.Fatalf("Seg accounted at %d", got)
	}
}

func TestPaperPrefixSubsetOfLossless(t *testing.T) {
	// The naive prefix may only miss pairs, never invent them, and counts
	// of found pairs stay exact.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		segs := randomFragment(rng, rng.Intn(15)+2, false)
		theta := float64(rng.Intn(5)+5) / 10
		base := Params{Fn: similarity.Jaccard, Theta: theta, Method: Prefix}
		exact := collect(segs, base)
		paper := base
		paper.PaperPrefix = true
		lossy := collect(segs, paper)
		em := map[string]int{}
		for _, e := range exact {
			em[fmt.Sprintf("%d-%d", e.a, e.b)] = e.c
		}
		for _, e := range lossy {
			want, ok := em[fmt.Sprintf("%d-%d", e.a, e.b)]
			if !ok {
				t.Fatalf("paper prefix invented pair %v", e)
			}
			if want != e.c {
				t.Fatalf("paper prefix count %d != %d", e.c, want)
			}
		}
		if len(lossy) > len(exact) {
			t.Fatal("paper prefix found more pairs than lossless")
		}
	}
}

// mathCeil avoids importing math at every call site above.
func mathCeil(x float64) float64 { return math.Ceil(x - 1e-9) }
