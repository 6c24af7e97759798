// Package fragjoin implements the reduce-side join kernels of FS-Join's
// filtering phase (Section V-A, "Join Algorithms"): given all segments of
// one fragment, produce (record pair, common-token count) partials.
//
// Loop and Index emit identical partials: one per qualifying segment pair
// with a non-zero intersection. Prefix emits a subset — it skips pairs
// whose fragment overlap is provably below what any θ-similar pair must
// have here (c < max(1, L(s), L(t)), DESIGN.md §3) — which preserves the
// exactness of the final join: every fragment of a similar pair is still
// counted exactly, and dropped partials can only lower the aggregate of
// pairs that are already below the threshold.
//
// The kernels are allocation-lean: posting lists live in one flat slice
// indexed by local token id (the fragment's indexed tokens, numbered
// densely through a table over their rank range), candidate overlap counts
// use generation-stamped sparse counters, and candidate buffers are reused
// across segments. Candidate pairs are pre-screened by Sandes et al.'s
// bitmap filter (filters.Signature, DESIGN.md §11): a fixed-width hashed
// token bitmap per segment whose XOR+popcount overlap upper bound rejects
// pairs early in every kernel — before the exact intersection in Loop, and
// at candidate registration (a pair's first shared posting) in Index and
// Prefix, so rejected pairs are never registered or drained. Exact
// intersections of short-span segments take a word-packed bitmap
// AND+popcount fast path instead of a merge.
//
// Which pairs may join at all — cross-origin only in an R-S join, small ×
// large only in a boundary partition — is the layout of the inverted index,
// not a test per candidate (DESIGN.md §12): every segment has a class, the
// postings are keyed by (token, class), and a segment probes the one class
// it may join, so Index and Prefix never touch a pair Loop would skip.
package fragjoin

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"fsjoin/internal/filters"
	"fsjoin/internal/mapreduce"
	"fsjoin/internal/partition"
	"fsjoin/internal/similarity"
	"fsjoin/internal/spill"
	"fsjoin/internal/tokens"
)

// Method selects the join kernel.
type Method int

const (
	// Loop compares every qualifying segment pair with an exact intersect.
	Loop Method = iota
	// Index builds an inverted list over all segment tokens and counts
	// overlaps through posting lists.
	Index
	// Prefix indexes only each segment's lossless prefix (DESIGN.md §3) —
	// the kernel FS-Join adopts.
	Prefix
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case Loop:
		return "loop"
	case Index:
		return "index"
	case Prefix:
		return "prefix"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Seg is one record segment as shuffled to a fragment reducer: the segment
// tokens plus everything the filters need (Algorithm 1's segInfo).
type Seg struct {
	// RID identifies the source record.
	RID int32
	// Origin is 0 for self-join / R-side records and 1 for S-side records.
	Origin uint8
	// Role is the record's horizontal-partition join role.
	Role partition.Role
	// StrLen, Head, Tail are |s|, |s^h| and |s^e|.
	StrLen int32
	Head   int32
	Tail   int32
	// Tokens is the segment's sorted token slice.
	Tokens []tokens.ID
}

// Seg's codec: the dominant shuffle value of the filtering job spills and
// checkpoints through it (DESIGN.md §8).
func init() {
	spill.Register(spill.TagSeg, spill.Codec[Seg]{
		Append: func(buf []byte, s Seg) []byte {
			buf = binary.AppendVarint(buf, int64(s.RID))
			buf = append(buf, s.Origin, byte(s.Role))
			buf = binary.AppendVarint(buf, int64(s.StrLen))
			buf = binary.AppendVarint(buf, int64(s.Head))
			buf = binary.AppendVarint(buf, int64(s.Tail))
			return spill.AppendU32s(buf, s.Tokens)
		},
		Read: func(d *spill.Dec) Seg {
			s := Seg{RID: int32(d.Varint())}
			s.Origin = d.Byte()
			s.Role = partition.Role(d.Byte())
			s.StrLen = int32(d.Varint())
			s.Head = int32(d.Varint())
			s.Tail = int32(d.Varint())
			s.Tokens = d.U32s()
			return s
		},
		// rid + origin/role + three lengths + tokens.
		Size: func(s Seg) int { return 4 + 2 + 12 + 4*len(s.Tokens) },
	})
}

// Meta converts the segment to the filters' view.
func (s Seg) Meta() filters.SegMeta {
	return filters.SegMeta{SegLen: len(s.Tokens), StrLen: int(s.StrLen), Head: int(s.Head), Tail: int(s.Tail)}
}

// Params configures a fragment join.
type Params struct {
	// Fn and Theta define the similarity predicate.
	Fn    similarity.Func
	Theta float64
	// Filters is the enabled filter set. The Prefix bit selects prefix
	// indexing inside the Prefix method and is implied by Method == Prefix.
	Filters filters.Set
	// Method is the join kernel.
	Method Method
	// RS marks an R-S join: only pairs with different Origin are joined.
	// When false the join is a self-join over Origin-0 segments.
	RS bool
	// PaperPrefix switches the Prefix kernel from the lossless segment
	// prefix (DESIGN.md §3) to the paper's literal segment-local prefix
	// length |Seg| − ⌈θ|Seg|⌉ + 1, which prunes candidates far harder but
	// can miss pairs whose co-occurring segments are individually below θ.
	PaperPrefix bool
	// Bitmap configures the hashed signature filter (DESIGN.md §11): a
	// per-segment fixed-width token bitmap whose XOR+popcount overlap
	// upper bound rejects candidate pairs before any exact intersection.
	// Callers resolve the environment override (BitmapConfig.Resolve)
	// once per pipeline; the zero value here means auto = enabled.
	Bitmap filters.BitmapConfig
}

// Emit receives one qualifying pair and its exact segment intersection
// size. For self-joins a.RID < b.RID; for R-S joins a is the R side.
type Emit func(a, b *Seg, common int)

// Counter names incremented on the context during joins. The bitmap
// filter's built/rejected/passed counters use the shared filters.CtrBitmap*
// names so fragjoin and ridpairs aggregate into the same Stats fields.
const (
	CtrComparisons = "fragjoin.comparisons"
	CtrPrunedStrL  = "fragjoin.pruned.strl"
	CtrPrunedSegL  = "fragjoin.pruned.segl"
	CtrPrunedSegI  = "fragjoin.pruned.segi"
	CtrPrunedSegD  = "fragjoin.pruned.segd"
	CtrEmitted     = "fragjoin.emitted"
)

// Join runs the configured kernel over one fragment's segments. ctx may be
// nil (counters are then skipped). Segments are processed in a canonical
// (Origin, RID) order so output is deterministic. It is a one-shot
// Workspace; a caller joining many fragments keeps one Workspace instead.
func Join(ctx *mapreduce.Context, segs []Seg, p Params, emit Emit) {
	var w Workspace
	w.Join(ctx, segs, p, emit)
}

// Workspace is one worker's kernel scratch, reused across the fragments it
// joins: the signatures, the plan, the postings and their rank → local id
// table, the candidate counters and the packed bitmaps are resized per
// fragment, never reallocated while they are large enough. A Workspace
// holds nothing of a fragment once Join returns, and every array is reset
// when the next Join starts, so reuse is invisible in what a join emits
// and counts — even after a join that panicked. The zero value is ready; a
// Workspace is not safe for concurrent use.
type Workspace struct {
	j joiner
}

// Join is the package-level Join run in w's scratch.
func (w *Workspace) Join(ctx *mapreduce.Context, segs []Seg, p Params, emit Emit) {
	slices.SortFunc(segs, func(a, b Seg) int {
		if a.Origin != b.Origin {
			return int(a.Origin) - int(b.Origin)
		}
		return int(a.RID) - int(b.RID)
	})
	j := &w.j
	j.ctx, j.p, j.emit, j.segs = ctx, p, emit, segs
	j.n, j.sigW = counters{}, 0
	j.buildSigs()
	switch p.Method {
	case Loop:
		j.resetBitmaps()
		j.loop()
	case Index:
		j.inverted(true)
	case Prefix:
		j.resetBitmaps()
		j.inverted(false)
	default:
		panic("fragjoin: unknown method")
	}
	if ctx != nil {
		j.n.flush(ctx)
	}
	j.ctx, j.emit, j.segs = nil, nil, nil
}

// resize returns s at length n, reallocated only when its capacity is
// short; the elements it keeps are left as they were.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// counters are one Join's counter increments, kept as plain integers in
// the hot loops and handed to the context once at the end.
type counters struct {
	comparisons, emitted                           int64
	prunedStrL, prunedSegL, prunedSegI, prunedSegD int64
	bitmapBuilt, bitmapPassed, bitmapRejected      int64
}

// flush adds the non-zero counts to the task's counters; a counter that
// never fired stays absent, as it would be had it been incremented in place.
func (n *counters) flush(ctx *mapreduce.Context) {
	for _, c := range [...]struct {
		name string
		v    int64
	}{
		{CtrComparisons, n.comparisons},
		{CtrPrunedStrL, n.prunedStrL},
		{CtrPrunedSegL, n.prunedSegL},
		{CtrPrunedSegI, n.prunedSegI},
		{CtrPrunedSegD, n.prunedSegD},
		{CtrEmitted, n.emitted},
		{filters.CtrBitmapBuilt, n.bitmapBuilt},
		{filters.CtrBitmapPassed, n.bitmapPassed},
		{filters.CtrBitmapRejected, n.bitmapRejected},
	} {
		if c.v != 0 {
			ctx.Inc(c.name, c.v)
		}
	}
}

// joiner is one fragment's join: what the kernels read and count, and the
// scratch arrays a Workspace keeps across fragments.
type joiner struct {
	ctx  *mapreduce.Context
	p    Params
	emit Emit
	segs []Seg
	n    counters

	// Generation-stamped sparse counters: counts[i] is segment i's running
	// overlap with the probing segment, valid only while stamp[i] == gen.
	// Bumping gen invalidates every counter at once, so nothing is cleared
	// between probe rounds; stamp is cleared and gen restarted per
	// fragment. touched has one bit per segment index, set when the
	// segment is registered as a candidate of the round and cleared as
	// drain visits it; loWord..hiWord bound the words that hold a set bit.
	counts         []int32
	stamp          []uint32
	gen            uint32
	touched        []uint64
	loWord, hiWord int

	// plans and inv are the inverted-list kernel's segment plan and
	// postings (Index and Prefix kernels).
	plans []segPlan
	inv   postings

	// bitmaps are the lazily built word-packed token sets for the exact
	// intersection fast path (Loop and Prefix kernels); their words are
	// cut from arena.
	bitmaps []segBitmap
	arena   []uint64

	// sigs are the fixed-width hashed signatures (filters.Signature) built
	// once per segment; sigW is their word width, 0 when the bitmap filter
	// is off.
	sigs []filters.Signature
	sigW int
}

// buildSigs builds every segment's hashed signature up front when the
// bitmap filter is enabled, with the width picked from the fragment's mean
// segment length (unless pinned by config).
func (j *joiner) buildSigs() {
	if !j.p.Bitmap.Enabled() || len(j.segs) < 2 {
		return
	}
	total := 0
	for i := range j.segs {
		total += len(j.segs[i].Tokens)
	}
	j.sigW = j.p.Bitmap.Words(float64(total) / float64(len(j.segs)))
	j.sigs = resize(j.sigs, len(j.segs))
	for i := range j.segs {
		filters.BuildSignature(&j.sigs[i], j.segs[i].Tokens, j.sigW)
	}
	j.n.bitmapBuilt = int64(len(j.segs))
}

// sigReject is the bitmap-filter pre-check: the signature overlap upper
// bound is run through the same SegI/SegD threshold algebra the exact count
// will face, so a rejected pair is exactly one finish() would drop — output
// is byte-identical with the filter on or off, only the exact intersection
// and candidate bookkeeping are skipped. Every kernel calls it on joinable
// pairs only — Loop per pairable pair before intersecting, Index and Prefix
// from accumulate at a pair's first shared posting in the partner class —
// so bitmap.passed and bitmap.rejected count the same thing in all three.
func (j *joiner) sigReject(i, k int, a, b *Seg) bool {
	if j.sigW == 0 {
		return false
	}
	ub := filters.SigOverlapUB(&j.sigs[i], &j.sigs[k], j.sigW, len(a.Tokens), len(b.Tokens))
	pass := ub > 0 &&
		!(j.p.Filters.Has(filters.SegI) && filters.SegIPrune(j.p.Fn, j.p.Theta, ub, a.Meta(), b.Meta())) &&
		!(j.p.Filters.Has(filters.SegD) && filters.SegDPrune(j.p.Fn, j.p.Theta, ub, a.Meta(), b.Meta()))
	if pass {
		j.n.bitmapPassed++
		return false
	}
	j.n.bitmapRejected++
	return true
}

// cancelPoint is the kernels' bounded-stride cancellation hook: placed in
// each probe/comparison loop so a cancelled or deadline-expired job aborts
// mid-fragment instead of finishing a possibly huge reduce group first.
// Nil-safe for ctx-less callers (unit tests, standalone use).
func (j *joiner) cancelPoint() {
	if j.ctx != nil {
		j.ctx.CheckCancel()
	}
}

// pairable applies the origin and horizontal-role join rules.
func (j *joiner) pairable(a, b *Seg) bool {
	if j.p.RS {
		if a.Origin == b.Origin {
			return false
		}
	} else if a.RID == b.RID {
		return false
	}
	return partition.Joinable(a.Role, b.Role)
}

// orient orders the pair for emission: R before S, else smaller RID first.
func orient(a, b *Seg) (*Seg, *Seg) {
	if a.Origin != b.Origin {
		if a.Origin == 0 {
			return a, b
		}
		return b, a
	}
	if a.RID < b.RID {
		return a, b
	}
	return b, a
}

// lengthPrune applies StrL and SegL, which need no intersection.
func (j *joiner) lengthPrune(a, b *Seg) bool {
	if j.p.Filters.Has(filters.StrL) && filters.StrLPrune(j.p.Fn, j.p.Theta, int(a.StrLen), int(b.StrLen)) {
		j.n.prunedStrL++
		return true
	}
	if j.p.Filters.Has(filters.SegL) && filters.SegLPrune(j.p.Fn, j.p.Theta, a.Meta(), b.Meta()) {
		j.n.prunedSegL++
		return true
	}
	return false
}

// finish applies the intersection-dependent filters and emits.
func (j *joiner) finish(a, b *Seg, c int) {
	if c == 0 {
		return
	}
	if j.p.Filters.Has(filters.SegI) && filters.SegIPrune(j.p.Fn, j.p.Theta, c, a.Meta(), b.Meta()) {
		j.n.prunedSegI++
		return
	}
	if j.p.Filters.Has(filters.SegD) && filters.SegDPrune(j.p.Fn, j.p.Theta, c, a.Meta(), b.Meta()) {
		j.n.prunedSegD++
		return
	}
	j.n.emitted++
	x, y := orient(a, b)
	j.emit(x, y, c)
}

// loop is the naive nested-loop kernel.
func (j *joiner) loop() {
	segs := j.segs
	for i := range segs {
		for k := i + 1; k < len(segs); k++ {
			j.cancelPoint()
			a, b := &segs[i], &segs[k]
			if !j.pairable(a, b) {
				continue
			}
			j.n.comparisons++
			if j.lengthPrune(a, b) {
				continue
			}
			if j.sigReject(i, k, a, b) {
				continue
			}
			j.finish(a, b, j.intersect(i, k))
		}
	}
}

// A class is what decides whether two segments may join: origin (R-S joins
// only; a self-join ignores it) × horizontal role. Each class joins exactly
// one partner class — region with region, small with large, the origin
// flipped in an R-S join — so "joinable" is "my partner class is your
// class", and the inverted index is laid out by it.
const (
	numClasses = 6 // origin {0, 1} × role {region, small, large}
	// noClass marks a segment no other can join (a role Joinable knows
	// nothing of): it neither probes nor is indexed.
	noClass = numClasses
)

// segPlan is one segment's part in the inverted-list kernel.
type segPlan struct {
	// probe is how many leading tokens the segment probes with: all of
	// them for Index, the lossless prefix for Prefix.
	probe int32
	// class is the segment's own class, partner the one class it may join.
	class, partner uint8
	// indexed says whether those tokens are then inserted under its class:
	// false when no later segment probes that class. Sorted by (Origin,
	// RID), that is the whole S side of an R-S fragment.
	indexed bool
}

// index is how many leading tokens of the segment the postings hold.
func (pl segPlan) index() int32 {
	if pl.indexed {
		return pl.probe
	}
	return 0
}

// plan lays out every segment's part in the kernel, in j.plans.
func (j *joiner) plan(exact bool) {
	partnerRole := [...]partition.Role{
		partition.RoleRegion: partition.RoleRegion,
		partition.RoleSmall:  partition.RoleLarge,
		partition.RoleLarge:  partition.RoleSmall,
	}
	// lastProbe[c] is the last segment that probes class c; a segment is
	// indexed when that is a later one, so 0 also serves as "none".
	var lastProbe [numClasses + 1]int
	plan := resize(j.plans, len(j.segs))
	j.plans = plan
	for i := range j.segs {
		s, pl := &j.segs[i], &plan[i]
		switch {
		case exact:
			pl.probe = int32(len(s.Tokens))
		case j.p.PaperPrefix:
			pl.probe = int32(filters.SegPrefixLenNaive(j.p.Theta, s.Meta()))
		default:
			pl.probe = int32(filters.SegPrefixLen(j.p.Fn, j.p.Theta, s.Meta()))
		}
		if int(s.Role) >= len(partnerRole) {
			pl.class, pl.partner = noClass, noClass
			continue
		}
		var origin, other uint8
		if j.p.RS {
			if s.Origin > 1 {
				panic(fmt.Sprintf("fragjoin: R-S segment with origin %d", s.Origin))
			}
			origin, other = s.Origin, s.Origin^1
		}
		pl.class = 3*origin + uint8(s.Role)
		pl.partner = 3*other + uint8(partnerRole[s.Role])
		lastProbe[pl.partner] = i
	}
	for i := range plan {
		plan[i].indexed = lastProbe[plan[i].class] > i
	}
}

// inverted is the inverted-list kernel behind Index and Prefix: postings
// per (token, class), counts accumulated while a segment probes its partner
// class, probe-then-insert to see each pair once. Index (exact) indexes and
// probes every token, so the accumulated count is already the intersection
// size; Prefix indexes and probes only each segment's lossless prefix
// (DESIGN.md §3) and gets the exact intersection of a discovered pair from
// the bitmap fast path or a merge.
func (j *joiner) inverted(exact bool) {
	j.plan(exact)
	plan, inv := j.plans, &j.inv
	inv.build(j.segs, plan)
	n := len(j.segs)
	j.counts = resize(j.counts, n)
	j.stamp = resize(j.stamp, n)
	clear(j.stamp)
	j.gen = 0
	j.touched = resize(j.touched, (n+63)/64)
	clear(j.touched)
	for k := range j.segs {
		toks, pl := j.segs[k].Tokens, plan[k]
		j.beginRound()
		for _, t := range toks[:pl.probe] {
			j.accumulate(inv.get(t, pl.partner), k)
		}
		j.drain(k, exact)
		for _, t := range toks[:pl.index()] {
			inv.add(t, pl.class, int32(k))
		}
	}
}

// beginRound invalidates all counters for a new probing segment.
func (j *joiner) beginRound() {
	j.gen++
	j.loWord, j.hiWord = len(j.touched), -1
}

// accumulate bumps the overlap counter of every segment on one posting
// list of the probing segment's partner class, registering first-touched
// segments as candidates — every pair it sees is joinable by construction.
// The bitmap filter's pre-check runs here, at a pair's first shared posting:
// a rejected segment is stamped but never registered, so it accumulates no
// further counts and never reaches drain. Unregistered segments may keep
// receiving counter bumps on later postings; their counts are stale and
// never read.
func (j *joiner) accumulate(list []int32, k int) {
	b := &j.segs[k]
	for _, i := range list {
		if j.stamp[i] != j.gen {
			j.stamp[i] = j.gen
			if j.sigW != 0 && j.sigReject(int(i), k, &j.segs[i], b) {
				continue
			}
			j.counts[i] = 0
			w := int(i >> 6)
			j.touched[w] |= 1 << (i & 63)
			j.loWord, j.hiWord = min(j.loWord, w), max(j.hiWord, w)
		}
		j.counts[i]++
	}
}

// drain finalises the current round's candidates against segment k. When
// exact, the accumulated count is already the intersection size; otherwise
// it is recomputed. Candidates are visited in index order — a sweep of the
// touched bits — for deterministic output and counter values. pairable is
// the check of record: the class layout already excludes every pair it
// refuses except two segments of one record meeting in a self-join.
func (j *joiner) drain(k int, exact bool) {
	b := &j.segs[k]
	for w := j.loWord; w <= j.hiWord; w++ {
		word := j.touched[w]
		j.touched[w] = 0
		for ; word != 0; word &= word - 1 {
			j.cancelPoint()
			i := w<<6 + bits.TrailingZeros64(word)
			a := &j.segs[i]
			if !j.pairable(a, b) {
				continue
			}
			j.n.comparisons++
			if j.lengthPrune(a, b) {
				continue
			}
			c := int(j.counts[i])
			if !exact {
				c = j.intersect(i, k)
			}
			j.finish(a, b, c)
		}
	}
}

// segBitmap is a lazily built word-packed view of one segment's token set:
// exact intersections become AND + popcount over the overlapping word
// range. Segments whose tokens straddle more than bitmapMaxWords 64-bit
// words are left unpacked and fall back to the merge intersect.
type segBitmap struct {
	state uint8  // 0 unbuilt, 1 packed, 2 ineligible
	first uint32 // index of the first packed word (token >> 6)
	words []uint64
}

// bitmapMaxWords caps a packed segment's word span (128 words = 8192 token
// ranks, 1 KiB). Fragment tokens are dense ranks inside one vertical range,
// so typical segments span a handful of words.
const bitmapMaxWords = 128

// resetBitmaps marks every segment's bitmap unbuilt and empties the arena
// their words are cut from.
func (j *joiner) resetBitmaps() {
	j.bitmaps = resize(j.bitmaps, len(j.segs))
	clear(j.bitmaps)
	j.arena = j.arena[:0]
}

// words cuts n zeroed words from the arena. An arena too short for them is
// replaced by one at least twice its size: words cut earlier keep the old
// one alive until the fragment ends, and the next fragment fits the new.
func (j *joiner) words(n int) []uint64 {
	l := len(j.arena)
	if l+n > cap(j.arena) {
		j.arena, l = make([]uint64, 0, max(2*cap(j.arena), n, 256)), 0
	}
	j.arena = j.arena[:l+n]
	w := j.arena[l : l+n : l+n]
	clear(w)
	return w
}

func (j *joiner) bitmap(i int) *segBitmap {
	bm := &j.bitmaps[i]
	if bm.state != 0 {
		return bm
	}
	toks := j.segs[i].Tokens
	if len(toks) == 0 {
		bm.state = 2
		return bm
	}
	// Pack only when the AND+popcount sweep beats a merge: the word span
	// bounds the sweep length, a merge costs about the two token counts.
	lo, hi := toks[0]>>6, toks[len(toks)-1]>>6
	if span := hi - lo + 1; span > bitmapMaxWords || int(span) > 2*len(toks) {
		bm.state = 2
		return bm
	}
	bm.first = lo
	bm.words = j.words(int(hi - lo + 1))
	for _, t := range toks {
		bm.words[(t>>6)-lo] |= 1 << (t & 63)
	}
	bm.state = 1
	return bm
}

// intersect returns |segs[i].Tokens ∩ segs[k].Tokens|, via packed bitmaps
// when both segments are short-spanned and a sorted merge otherwise.
func (j *joiner) intersect(i, k int) int {
	a, b := j.bitmap(i), j.bitmap(k)
	if a.state == 1 && b.state == 1 {
		lo := max(a.first, b.first)
		hi := min(a.first+uint32(len(a.words)), b.first+uint32(len(b.words)))
		n := 0
		for w := lo; w < hi; w++ {
			n += bits.OnesCount64(a.words[w-a.first] & b.words[w-b.first])
		}
		return n
	}
	return tokens.Intersect(j.segs[i].Tokens, j.segs[k].Tokens)
}

// postings is the inverted index over segment tokens, keyed by (token,
// class). build numbers the fragment's indexed tokens densely: ids[t−base]
// is token t's local id + 1, 0 when t is not indexed, over the indexed
// tokens' rank range only. The lists are a CSR layout over local ids: every
// list's final size is known up front (segPlan.index), one flat backing
// array holds all lists and starts/lens slice it, one row of local ids per
// indexed class and no row for a class nothing is indexed under. All four
// arrays are kept across the fragments of a Workspace; ids costs 4 bytes
// per rank of the widest indexed range met, so at most 4·|U| per worker. A
// segment probes another class's lists, so get answers any token and any
// class: what was never indexed has an empty list.
type postings struct {
	base   tokens.ID
	row    [numClasses + 1]int // class → offset of its row in starts/lens, -1 when none
	ids    []int32
	starts []int32
	lens   []int32
	flat   []int32
}

// build empties the index and sizes it for the tokens the plan says will
// be added.
func (p *postings) build(segs []Seg, plan []segPlan) {
	for c := range p.row {
		p.row[c] = -1
	}
	var lo, hi tokens.ID
	total := 0
	for i := range segs {
		n := int(plan[i].index())
		if n == 0 {
			continue
		}
		toks := segs[i].Tokens[:n]
		if total == 0 || toks[0] < lo {
			lo = toks[0]
		}
		if total == 0 || toks[n-1] > hi {
			hi = toks[n-1]
		}
		total += n
		p.row[plan[i].class] = 0 // has a row; placed below
	}
	if total == 0 {
		return
	}
	p.base = lo
	p.ids = resize(p.ids, int(hi-lo)+1)
	clear(p.ids)
	var distinct int32
	for i := range segs {
		for _, t := range segs[i].Tokens[:plan[i].index()] {
			if p.ids[t-lo] == 0 {
				distinct++
				p.ids[t-lo] = distinct
			}
		}
	}
	cells := 0
	for c := range p.row {
		if p.row[c] >= 0 {
			p.row[c] = cells
			cells += int(distinct)
		}
	}
	p.starts = resize(p.starts, cells)
	clear(p.starts)
	for i := range segs {
		n := plan[i].index()
		if n == 0 {
			continue
		}
		row := p.starts[p.row[plan[i].class]:]
		for _, t := range segs[i].Tokens[:n] {
			row[p.ids[t-lo]-1]++
		}
	}
	var off int32
	for o, n := range p.starts {
		p.starts[o] = off
		off += n
	}
	p.lens = resize(p.lens, cells)
	clear(p.lens)
	p.flat = resize(p.flat, total)
}

// get returns the segments indexed so far under token t in class c.
func (p *postings) get(t tokens.ID, c uint8) []int32 {
	o, r := int(t)-int(p.base), p.row[c]
	if r < 0 || o < 0 || o >= len(p.ids) || p.ids[o] == 0 {
		return nil
	}
	r += int(p.ids[o]) - 1
	return p.flat[p.starts[r] : p.starts[r]+p.lens[r]]
}

// add appends segment k to token t's list in class c; the caller adds only
// what build counted.
func (p *postings) add(t tokens.ID, c uint8, k int32) {
	o := p.row[c] + int(p.ids[t-p.base]) - 1
	p.flat[p.starts[o]+p.lens[o]] = k
	p.lens[o]++
}
