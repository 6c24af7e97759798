// Package probeindex implements the persistent probe index: a build-once,
// read-many fragment index answering single-record similarity queries
// without re-running the batch pipeline.
//
// The index stores the corpus in the PR 1 fragment layout — a global
// frequency-ascending token order plus CSR postings over each record's
// probing prefix, with the posting position retained for the PPJoin
// positional filter — and precomputes one hashed bitmap signature per record
// (DESIGN.md §11). A probe canonicalises its token set against the stored
// order, walks only the postings of its own probing prefix, and funnels the
// survivors of the length, positional and bitmap filters into the same
// filters.VerifyOverlap / similarity.Func.AtLeast kernel the batch joins
// use, so a probe result is byte-identical to the full join restricted to
// that record.
//
// Mutations after Build go to a side-log overlay: Insert appends to the log
// (new tokens extend the global order at the rare end, which preserves
// every prefix already indexed), Delete tombstones either a base slot or a
// log entry, and probes take the union view — postings minus tombstones
// plus a linear scan of the live log — under one RWMutex. Compact folds the
// log back into the CSR base and recomputes the token order. Persistence
// (Save/Load) lives in persist.go and rides the internal/checkpoint
// atomic-write, checksum-verified codec (framed files, DESIGN.md §16).
package probeindex

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fsjoin/internal/filters"
	"fsjoin/internal/frame"
	"fsjoin/internal/similarity"
	"fsjoin/internal/tokens"
)

// Counter names surfaced through Stats and fsjoin.Server job stats.
const (
	// CtrProbes counts Probe/ProbeRecord calls served.
	CtrProbes = "index.probes"
	// CtrCandidates counts postings-walk and overlay candidates examined
	// (after the seen-dedup, before the length filter).
	CtrCandidates = "index.candidates"
	// CtrHits counts matches returned.
	CtrHits = "index.hits"
	// CtrLogSize gauges the side-log overlay: live log inserts plus base
	// tombstones not yet folded by Compact.
	CtrLogSize = "index.log.size"
	// CtrCompactions counts Compact calls (manual and automatic).
	CtrCompactions = "index.compactions"
	// CtrWALAppends counts acknowledged durable mutations appended to the
	// write-ahead log.
	CtrWALAppends = "wal.appends"
	// CtrWALSyncedBytes counts WAL bytes made durable by an fsync.
	CtrWALSyncedBytes = "wal.synced.bytes"
	// CtrWALReplayed counts WAL frames replayed by Load on top of the
	// snapshot.
	CtrWALReplayed = "wal.replayed"
	// CtrWALTruncated counts torn or invalid WAL tails dropped by
	// truncate-to-last-valid recovery.
	CtrWALTruncated = "wal.truncated.frames"
	// CtrSnapshotBytes gauges the size of the current snapshot generation
	// on disk (0 until the index is persisted).
	CtrSnapshotBytes = "snapshot.bytes"
)

// Options configures an index. The similarity function, threshold and
// bitmap policy are fixed at build time and persisted with the index; a
// probe answers exactly the query "which indexed records are θ-similar to
// this set under Fn".
type Options struct {
	// Fn is the similarity function (Jaccard, Dice or Cosine).
	Fn similarity.Func
	// Theta is the similarity threshold in (0, 1].
	Theta float64
	// Bitmap configures the per-record signature filter (DESIGN.md §11).
	// Auto mode honours the FSJOIN_BITMAP test switch, resolved once at
	// Build/Load.
	Bitmap filters.BitmapConfig
}

func (o Options) validate() error {
	if o.Theta <= 0 || o.Theta > 1 {
		return fmt.Errorf("probeindex: theta %v outside (0, 1]", o.Theta)
	}
	switch o.Fn {
	case similarity.Jaccard, similarity.Dice, similarity.Cosine:
	default:
		return fmt.Errorf("probeindex: unknown similarity function %d", int(o.Fn))
	}
	if err := o.Bitmap.Validate(); err != nil {
		return err
	}
	_, err := o.Bitmap.Resolve()
	return err
}

// Match is one probe result: an indexed record meeting the threshold.
type Match struct {
	// RID is the matched record's identifier.
	RID int32
	// Common is the exact intersection size.
	Common int32
	// Sim is the exact similarity, computed by the same Func.Sim the batch
	// pipeline publishes.
	Sim float64
}

// Stats is a snapshot of index counters.
type Stats struct {
	// Probes, Candidates and Hits are cumulative since build/load.
	Probes     int64
	Candidates int64
	Hits       int64
	// LogSize is the current overlay size (live inserts + base tombstones).
	LogSize int64
	// Records is the number of live records probes can match.
	Records int64
	// Compactions counts Compact calls since build/load (manual plus
	// automatic); AutoCompactions is the policy-triggered subset.
	Compactions     int64
	AutoCompactions int64
	// Durability counters (all zero for a purely in-memory index):
	// mutations appended to the WAL, WAL bytes fsynced, frames replayed at
	// load, torn tails truncated at load, and the size of the current
	// snapshot generation on disk.
	WALAppends         int64
	WALSyncedBytes     int64
	WALReplayed        int64
	WALTruncatedFrames int64
	SnapshotBytes      int64
	// Generation is the current snapshot generation (0 until persisted).
	Generation int64
}

// logRec is one side-log overlay entry: a record inserted after the last
// build/compact, or its tombstone once deleted.
type logRec struct {
	rid  int32
	toks []uint32 // ranks, sorted ascending, duplicate-free
	sig  filters.Signature
	dead bool
}

// scratch is the per-probe candidate-dedup workspace, generation-stamped so
// reuse across probes never needs a clear.
type scratch struct {
	seen []uint32
	gen  uint32
}

// Index is the probe index. All exported methods are safe for concurrent
// use: probes share a read lock, mutations take the write lock.
type Index struct {
	fn       similarity.Func
	theta    float64
	bitmap   filters.BitmapConfig // resolved once at Build/Load
	sigWords int                  // 0 when the bitmap filter is off

	mu sync.RWMutex

	// Token table: rank = position in the global frequency-ascending order
	// (ties broken by token string). Insert extends it at the frequent end;
	// ranks are stable between compactions.
	tokStr  []string
	tokRank map[string]uint32

	// Base records, CSR: record slot s owns recTok[recOff[s]:recOff[s+1]],
	// sorted ranks. dead marks tombstoned slots still present in postings.
	recOff []int
	recTok []uint32
	recRID []int32
	recSig []filters.Signature // nil when sigWords == 0
	dead   []bool
	slotOf map[int32]int

	// Prefix postings, CSR: rank w owns postSlot/postPos[postOff[w]:
	// postOff[w+1]] — the base slots whose probing prefix contains w, with
	// w's position inside each record.
	postOff  []int
	postSlot []int32
	postPos  []int32

	// Side-log overlay.
	log      []logRec
	logSlot  map[int32]int
	logLive  int
	baseDead int

	nextRID int32
	liveN   int

	// Durability state (nil/zero for a purely in-memory index): the
	// directory and snapshot generation the index is bound to, the open
	// WAL accepting acknowledged mutations, and the maintenance policy.
	dir         string
	gen         int
	wal         *wal
	dopt        DurableOptions
	lastCompact time.Time

	probes, candidates, hits, compactions atomic.Int64

	autoCompactions, walAppends, walSynced   atomic.Int64
	walReplayed, walTruncated, snapshotBytes atomic.Int64

	scratchPool sync.Pool
}

// Build constructs an index over a canonical collection. tokenOf maps the
// collection's dictionary ids back to token strings (it must be injective
// over the ids in use); the index keys on strings so probes may carry
// tokens the corpus has never seen.
func Build(c *tokens.Collection, tokenOf func(tokens.ID) string, opt Options) (*Index, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if c == nil {
		return nil, fmt.Errorf("probeindex: nil collection")
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("probeindex: %w", err)
	}
	ix := newIndex(opt)
	recs := make([]baseRec, len(c.Records))
	for i, r := range c.Records {
		recs[i] = baseRec{rid: r.RID, toks: r.Tokens}
		if r.RID >= ix.nextRID {
			ix.nextRID = r.RID + 1
		}
	}
	if err := ix.order(recs, int(c.MaxToken())+1, tokenOf); err != nil {
		return nil, err
	}
	ix.assemble(recs)
	return ix, nil
}

func newIndex(opt Options) *Index {
	ix := &Index{
		fn:      opt.Fn,
		theta:   opt.Theta,
		bitmap:  opt.Bitmap.ResolveEnv(), // validate refused a malformed switch
		tokRank: map[string]uint32{},
		slotOf:  map[int32]int{},
		logSlot: map[int32]int{},
	}
	ix.scratchPool.New = func() any { return &scratch{} }
	return ix
}

// baseRec is one record headed for the CSR base.
type baseRec struct {
	rid  int32
	toks []uint32
}

// order sets the global token order from recs, whose tokens are ids in
// [0, n) named by name: frequency ascending, ties by token string — the
// same rare-first order the batch pipeline computes, made self-contained so
// the index needs no external order to probe. Ids no record holds get no
// rank. Each record's tokens are replaced by a fresh slice of its sorted
// ranks. Build orders the collection's dictionary ids, compaction the live
// records' current ranks; it fails only if name gives two ids in use the
// same string.
func (ix *Index) order(recs []baseRec, n int, name func(uint32) string) error {
	freq := make([]int64, n)
	for _, r := range recs {
		for _, t := range r.toks {
			freq[t]++
		}
	}
	ids := make([]uint32, 0, n)
	strOf := make([]string, n)
	for id, f := range freq {
		if f > 0 {
			ids = append(ids, uint32(id))
			strOf[id] = name(uint32(id))
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := ids[i], ids[j]
		if freq[a] != freq[b] {
			return freq[a] < freq[b]
		}
		return strOf[a] < strOf[b]
	})
	rankOf := make([]uint32, n)
	ix.tokStr = make([]string, len(ids))
	ix.tokRank = make(map[string]uint32, len(ids))
	for rank, id := range ids {
		s := strOf[id]
		if _, dup := ix.tokRank[s]; dup {
			return fmt.Errorf("probeindex: tokenOf not injective at %q", s)
		}
		rankOf[id] = uint32(rank)
		ix.tokStr[rank] = s
		ix.tokRank[s] = uint32(rank)
	}
	for i, r := range recs {
		rs := make([]uint32, len(r.toks))
		for j, t := range r.toks {
			rs[j] = rankOf[t]
		}
		slices.Sort(rs)
		recs[i].toks = rs
	}
	return nil
}

// assemble (re)builds the CSR base, signatures and postings from rank-coded
// records, leaving the overlay empty. Records are stored in RID order so
// the layout — and therefore the persisted bytes — is deterministic.
func (ix *Index) assemble(recs []baseRec) {
	sort.Slice(recs, func(i, j int) bool { return recs[i].rid < recs[j].rid })

	total := 0
	for _, r := range recs {
		total += len(r.toks)
	}
	ix.recOff = make([]int, len(recs)+1)
	ix.recTok = make([]uint32, 0, total)
	ix.recRID = make([]int32, len(recs))
	ix.dead = make([]bool, len(recs))
	ix.slotOf = make(map[int32]int, len(recs))
	for s, r := range recs {
		ix.recOff[s] = len(ix.recTok)
		ix.recTok = append(ix.recTok, r.toks...)
		ix.recRID[s] = r.rid
		ix.slotOf[r.rid] = s
	}
	ix.recOff[len(recs)] = len(ix.recTok)

	ix.sigWords = 0
	ix.recSig = nil
	if ix.bitmap.Enabled() && len(recs) > 0 {
		ix.sigWords = ix.bitmap.Words(float64(total) / float64(len(recs)))
		ix.recSig = make([]filters.Signature, len(recs))
		for s := range recs {
			filters.BuildSignature(&ix.recSig[s], ix.slotToks(s), ix.sigWords)
		}
	}

	ix.rebuildPostings()

	ix.log = nil
	ix.logSlot = map[int32]int{}
	ix.logLive = 0
	ix.baseDead = 0
	ix.liveN = len(recs)
}

// rebuildPostings fills the prefix-postings CSR from the base records: rank
// w lists every base slot whose probing prefix contains w, with w's
// position. Indexing the probing (not the shorter indexing) prefix keeps
// the index complete for arbitrary external probes, not only self-joins.
func (ix *Index) rebuildPostings() {
	counts := make([]int, len(ix.tokStr)+1)
	nrec := len(ix.recRID)
	for s := 0; s < nrec; s++ {
		ts := ix.slotToks(s)
		p := ix.fn.ProbePrefixLen(ix.theta, len(ts))
		for i := 0; i < p; i++ {
			counts[ts[i]+1]++
		}
	}
	for w := 1; w < len(counts); w++ {
		counts[w] += counts[w-1]
	}
	ix.postOff = counts
	n := counts[len(counts)-1]
	ix.postSlot = make([]int32, n)
	ix.postPos = make([]int32, n)
	cur := make([]int, len(ix.tokStr))
	copy(cur, ix.postOff[:len(ix.tokStr)])
	for s := 0; s < nrec; s++ {
		ts := ix.slotToks(s)
		p := ix.fn.ProbePrefixLen(ix.theta, len(ts))
		for i := 0; i < p; i++ {
			w := ts[i]
			k := cur[w]
			ix.postSlot[k] = int32(s)
			ix.postPos[k] = int32(i)
			cur[w] = k + 1
		}
	}
}

func (ix *Index) slotToks(s int) []uint32 {
	return ix.recTok[ix.recOff[s]:ix.recOff[s+1]]
}

// canonicalize maps a probe's token strings to sorted, duplicate-free known
// ranks plus the count of distinct unknown tokens. Unknown tokens are
// treated as ranked after every known rank: the prefix-filter theorem holds
// under any total order, the stored prefixes are unchanged by appending new
// tokens at the end of the order, and an unknown token can never match an
// indexed one — so scanning only the known ranks inside the probe's prefix
// stays complete, while the probe's full length L = known + unknown feeds
// the same prefix/overlap algebra the batch pipeline uses.
func (ix *Index) canonicalize(set []string) (ranks []uint32, total int) {
	ranks = make([]uint32, 0, len(set))
	var unk map[string]struct{}
	for _, tok := range set {
		if r, ok := ix.tokRank[tok]; ok {
			ranks = append(ranks, r)
		} else {
			if unk == nil {
				unk = make(map[string]struct{}, 4)
			}
			unk[tok] = struct{}{}
		}
	}
	slices.Sort(ranks)
	ranks = slices.Compact(ranks)
	return ranks, len(ranks) + len(unk)
}

// Probe returns every live indexed record θ-similar to the given token set,
// sorted by RID. The set may be unsorted and contain duplicates or tokens
// the index has never seen.
func (ix *Index) Probe(set []string) []Match {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	ranks, total := ix.canonicalize(set)
	return ix.probeLocked(ranks, total, 0, false)
}

// ProbeRecord probes with an indexed record's own token set, excluding the
// record itself — the self-join view restricted to rid.
func (ix *Index) ProbeRecord(rid int32) ([]Match, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if s, ok := ix.slotOf[rid]; ok && !ix.dead[s] {
		ts := ix.slotToks(s)
		return ix.probeLocked(ts, len(ts), rid, true), nil
	}
	if li, ok := ix.logSlot[rid]; ok && !ix.log[li].dead {
		ts := ix.log[li].toks
		return ix.probeLocked(ts, len(ts), rid, true), nil
	}
	return nil, fmt.Errorf("probeindex: record %d not in index", rid)
}

// probeLocked runs the filter chain under a held read lock. ranks is the
// probe's known ranks (sorted, deduped); total its full length including
// unknown tokens; exclude/hasExcl optionally drops one rid (self-probes).
//
// Soundness of pruning at first contact: postings are walked in ascending
// rank order over the probe's prefix, so the first posting that reaches a
// slot corresponds to the pair's globally smallest common token — exactly
// the group RIDPairsPPJoin would discover the pair in — and the positional
// bound is loosest there. A slot rejected at first contact is therefore
// rejected in every group, and the seen-stamp may finalise it.
func (ix *Index) probeLocked(ranks []uint32, total int, exclude int32, hasExcl bool) []Match {
	ix.probes.Add(1)
	if total == 0 {
		return nil
	}
	var out []Match
	var cand int64

	q := query{ranks: ranks, total: total}
	if ix.sigWords > 0 {
		filters.BuildSignature(&q.sig, ranks, ix.sigWords)
	}

	nBase := len(ix.recRID)
	sc := ix.scratchPool.Get().(*scratch)
	if len(sc.seen) < nBase {
		sc.seen = make([]uint32, nBase)
		sc.gen = 0
	}
	sc.gen++
	if sc.gen == 0 {
		for i := range sc.seen {
			sc.seen[i] = 0
		}
		sc.gen = 1
	}

	p := ix.fn.ProbePrefixLen(ix.theta, total)
	if p > len(ranks) {
		p = len(ranks) // the tail of the prefix is unknown tokens: no postings
	}
	for i := 0; i < p; i++ {
		w := ranks[i]
		if int(w) >= len(ix.tokStr) || int(w)+1 >= len(ix.postOff) {
			continue // rank added by Insert after the last compact: no base postings
		}
		for k := ix.postOff[w]; k < ix.postOff[w+1]; k++ {
			slot := ix.postSlot[k]
			if sc.seen[slot] == sc.gen {
				continue
			}
			sc.seen[slot] = sc.gen
			if ix.dead[slot] {
				continue
			}
			rid := ix.recRID[slot]
			if hasExcl && rid == exclude {
				continue
			}
			cand++
			ts := ix.slotToks(int(slot))
			lx := len(ts)
			if filters.StrLPrune(ix.fn, ix.theta, total, lx) {
				continue
			}
			required := ix.fn.MinOverlap(ix.theta, total, lx)
			// PPJoin positional filter at the smallest common token: w is
			// probe position i and record position postPos[k]; at most
			// 1 + min(remaining on each side) tokens can still match.
			if bound := 1 + min(total-i-1, lx-int(ix.postPos[k])-1); bound < required {
				continue
			}
			var sig *filters.Signature
			if ix.sigWords > 0 {
				sig = &ix.recSig[slot]
			}
			out = ix.verify(&q, out, rid, ts, sig, required)
		}
	}
	ix.scratchPool.Put(sc)

	// Overlay: linear scan of live log entries with the same filter chain
	// minus the positional filter (the log has no postings positions).
	for li := range ix.log {
		e := &ix.log[li]
		if e.dead || len(e.toks) == 0 || hasExcl && e.rid == exclude {
			continue
		}
		cand++
		lx := len(e.toks)
		if filters.StrLPrune(ix.fn, ix.theta, total, lx) {
			continue
		}
		out = ix.verify(&q, out, e.rid, e.toks, &e.sig, ix.fn.MinOverlap(ix.theta, total, lx))
	}

	sort.Slice(out, func(i, j int) bool { return out[i].RID < out[j].RID })
	ix.candidates.Add(cand)
	ix.hits.Add(int64(len(out)))
	return out
}

// query is a probe in canonical form.
type query struct {
	ranks []uint32          // known ranks, sorted and duplicate-free
	total int               // full length, unknown tokens included
	sig   filters.Signature // over ranks; unused when the filter is off
}

// verify ends the filter chain base slots and overlay records share: the
// bitmap bound (sig is the candidate's signature, unread when the filter is
// off), then exact verification against the threshold. A match is appended
// to out.
func (ix *Index) verify(q *query, out []Match, rid int32, ts []uint32, sig *filters.Signature, required int) []Match {
	lx := len(ts)
	// q.sig covers only the known ranks, but unknown probe tokens cannot
	// intersect an indexed set, so the bound on the known part bounds the
	// true overlap; required still reflects the full probe length. Exact,
	// never lossy.
	if ix.sigWords > 0 && filters.SigPrune(&q.sig, sig, ix.sigWords, len(q.ranks), lx, required) {
		return out
	}
	c, ok := filters.VerifyOverlap(q.ranks, ts, required)
	if !ok || !ix.fn.AtLeast(c, q.total, lx, ix.theta) {
		return out
	}
	return append(out, Match{RID: rid, Common: int32(c), Sim: ix.fn.Sim(c, q.total, lx)})
}

// Insert adds a record to the side-log overlay and returns its assigned
// RID. Tokens unknown to the index extend the global order at the frequent
// end — a sound extension, because every already-indexed prefix stays a
// prefix under any order completion that only appends new ranks.
//
// On a durable index the mutation is appended to the write-ahead log
// (synced per the configured policy) BEFORE it is applied or acknowledged;
// a WAL failure returns a *WALError and leaves the index unchanged — a
// mutation is never acknowledged without its durable record.
func (ix *Index) Insert(set []string) (int32, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	rid := ix.nextRID
	if ix.wal != nil {
		if err := ix.walAppendLocked(encodeInsert(rid, set)); err != nil {
			return 0, err
		}
	}
	ix.applyInsertLocked(rid, set)
	return rid, nil
}

// applyInsertLocked commits one insert to the in-memory overlay under a
// held write lock: rid becomes live, new tokens extend the rank table.
func (ix *Index) applyInsertLocked(rid int32, set []string) {
	ix.nextRID = rid + 1
	ranks := make([]uint32, 0, len(set))
	for _, tok := range set {
		r, ok := ix.tokRank[tok]
		if !ok {
			r = uint32(len(ix.tokStr))
			ix.tokStr = append(ix.tokStr, tok)
			ix.tokRank[tok] = r
		}
		ranks = append(ranks, r)
	}
	slices.Sort(ranks)
	ix.admitLocked(rid, slices.Compact(ranks))
}

// admitLocked appends a live record to the side-log overlay under a held
// write lock: ranks sorted and duplicate-free, rid not yet in the index.
// Insert and the restore of a snapshot's side-log both come through here.
func (ix *Index) admitLocked(rid int32, ranks []uint32) {
	e := logRec{rid: rid, toks: ranks}
	if ix.sigWords > 0 {
		filters.BuildSignature(&e.sig, ranks, ix.sigWords)
	}
	ix.logSlot[rid] = len(ix.log)
	ix.log = append(ix.log, e)
	ix.logLive++
	ix.liveN++
}

// Delete removes a record: base slots are tombstoned (their postings decay
// at the next Compact), log entries are tombstoned in place. Durable
// deletes follow the same WAL-before-acknowledge contract as Insert.
func (ix *Index) Delete(rid int32) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if !ix.liveLocked(rid) {
		return fmt.Errorf("probeindex: record %d not in index", rid)
	}
	if ix.wal != nil {
		if err := ix.walAppendLocked(encodeDelete(rid)); err != nil {
			return err
		}
	}
	return ix.applyDeleteLocked(rid)
}

// liveLocked reports whether rid is currently probeable.
func (ix *Index) liveLocked(rid int32) bool {
	if s, ok := ix.slotOf[rid]; ok && !ix.dead[s] {
		return true
	}
	li, ok := ix.logSlot[rid]
	return ok && !ix.log[li].dead
}

// applyDeleteLocked commits one delete under a held write lock.
func (ix *Index) applyDeleteLocked(rid int32) error {
	if s, ok := ix.slotOf[rid]; ok && !ix.dead[s] {
		ix.dead[s] = true
		ix.baseDead++
		ix.liveN--
		return nil
	}
	if li, ok := ix.logSlot[rid]; ok && !ix.log[li].dead {
		ix.log[li].dead = true
		delete(ix.logSlot, rid)
		ix.logLive--
		ix.liveN--
		return nil
	}
	return fmt.Errorf("probeindex: record %d not in index", rid)
}

// walAppendLocked appends one op to the open WAL, folding the sync
// outcome into the durability counters.
func (ix *Index) walAppendLocked(op []byte) error {
	synced, err := ix.wal.append(op)
	if err != nil {
		return err
	}
	frame.Kill("wal.append.post")
	ix.walAppends.Add(1)
	ix.walSynced.Add(synced)
	return nil
}

// Compact folds the overlay into the CSR base: live log records join the
// base, tombstones vanish, the global token order is recomputed from the
// surviving corpus (frequency ascending, ties by string, dead tokens
// dropped) and postings and signatures are rebuilt. Probe results are
// unchanged; only the layout moves.
//
// On a durable index compaction also checkpoints: a fresh snapshot
// generation is written atomically, a new empty WAL is installed and the
// old generation retired — see rollLocked for the crash protocol.
func (ix *Index) Compact() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.wal != nil {
		return ix.checkpointLocked()
	}
	ix.compactLocked()
	return nil
}

// compactLocked is the in-memory fold, shared by Compact and the durable
// checkpoint path: the live records, in their current ranks, are ordered
// afresh and assembled into a new base.
func (ix *Index) compactLocked() {
	live := make([]baseRec, 0, ix.liveN)
	for s := range ix.recRID {
		if !ix.dead[s] {
			live = append(live, baseRec{rid: ix.recRID[s], toks: ix.slotToks(s)})
		}
	}
	for li := range ix.log {
		if !ix.log[li].dead {
			live = append(live, baseRec{rid: ix.log[li].rid, toks: ix.log[li].toks})
		}
	}
	old := ix.tokStr
	// old names every rank once, so the order cannot fail.
	_ = ix.order(live, len(old), func(r uint32) string { return old[r] })
	ix.assemble(live)
	ix.compactions.Add(1)
	ix.lastCompact = time.Now()
}

// Len returns the number of live records.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.liveN
}

// Stats snapshots the index counters.
func (ix *Index) Stats() Stats {
	ix.mu.RLock()
	logSize := int64(ix.logLive + ix.baseDead)
	records := int64(ix.liveN)
	gen := int64(ix.gen)
	ix.mu.RUnlock()
	return Stats{
		Probes:             ix.probes.Load(),
		Candidates:         ix.candidates.Load(),
		Hits:               ix.hits.Load(),
		LogSize:            logSize,
		Records:            records,
		Compactions:        ix.compactions.Load(),
		AutoCompactions:    ix.autoCompactions.Load(),
		WALAppends:         ix.walAppends.Load(),
		WALSyncedBytes:     ix.walSynced.Load(),
		WALReplayed:        ix.walReplayed.Load(),
		WALTruncatedFrames: ix.walTruncated.Load(),
		SnapshotBytes:      ix.snapshotBytes.Load(),
		Generation:         gen,
	}
}
