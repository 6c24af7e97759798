package massjoin

import (
	"sync/atomic"

	"fsjoin/internal/mapreduce"
	"fsjoin/internal/order"
	"fsjoin/internal/result"
)

// sigMapper emits index-side signatures (one per even segment, plus the
// match-all signature) for each record, and probe-side signatures for every
// admissible shorter partner length ℓ ∈ [minLen(|t|), |t|] — the
// per-integer-length generation the paper describes ("for each integer from
// 80 to 125, string t will generate signatures separately"). One instance
// is shared by all map tasks, which may run concurrently, so the running
// count is atomic.
type sigMapper struct {
	opt     Options
	emitted atomic.Int64
}

// Map implements mapreduce.Mapper.
func (m *sigMapper) Map(ctx *mapreduce.Context, kv mapreduce.KV) {
	rec := order.KVRecord(kv)
	l := rec.Len()
	if l == 0 {
		return
	}
	// Once the signature budget is exhausted the run is a failure (DNF);
	// stop generating immediately instead of burning CPU on doomed work.
	exhausted := func() bool {
		if m.opt.MaxSignatures > 0 && m.emitted.Load() >= m.opt.MaxSignatures {
			ctx.Inc("massjoin.sig.dropped", 1)
			return true
		}
		return false
	}
	if exhausted() {
		return
	}
	light := lightVector(rec.Tokens)
	emit := func(key string, probe bool) {
		if exhausted() {
			return
		}
		m.emitted.Add(1)
		ctx.Inc("massjoin.sig.emitted", 1)
		ctx.Emit(key, sigEntry{rid: rec.RID, l: int32(l), probe: probe, light: light})
	}

	// Index side: m(l) even segments plus the match-all signature.
	mseg := segmentsFor(m.opt.Fn, m.opt.Theta, l)
	bounds := segBounds(l, mseg)
	for i := 0; i < mseg; i++ {
		seg := rec.Tokens[bounds[i]:bounds[i+1]]
		emit(sigKey(l, uint16(i), hashTokens(seg)), false)
	}
	emit(sigKey(l, allSeg, 0), false)

	// Probe side: for every admissible partner length ℓ ≤ |t|.
	minPartner := m.opt.Fn.MinLen(m.opt.Theta, l)
	for pl := minPartner; pl <= l; pl++ {
		if exhausted() {
			return
		}
		k := maxSymDiff(m.opt.Fn, m.opt.Theta, pl, l)
		mp := segmentsFor(m.opt.Fn, m.opt.Theta, pl)
		if mp < k+1 {
			// The partner is too short for the pigeonhole: fall back to
			// the unconditional match-all signature for this length.
			emit(sigKey(pl, allSeg, 0), true)
			continue
		}
		pb := segBounds(pl, mp)
		for i := 0; i < mp; i++ {
			if exhausted() {
				return
			}
			segLen := pb[i+1] - pb[i]
			if segLen == 0 {
				continue
			}
			// Candidate substrings of this record that could equal
			// segment i of an ℓ-length partner: same length, start
			// displaced by at most k.
			lo := pb[i] - k
			if lo < 0 {
				lo = 0
			}
			hi := pb[i] + k
			if hi > l-segLen {
				hi = l - segLen
			}
			for start := lo; start <= hi; start++ {
				if exhausted() {
					return
				}
				sub := rec.Tokens[start : start+segLen]
				emit(sigKey(pl, uint16(i), hashTokens(sub)), true)
			}
		}
	}
}

// sigReducer matches index-side and probe-side signature occurrences and
// emits candidate pairs keyed by (min rid, max rid). Merge+Light prunes
// candidates here with the token-grouping overlap bound before anything is
// shuffled onward.
type sigReducer struct {
	opt Options
}

// Reduce implements mapreduce.Reducer.
func (r *sigReducer) Reduce(ctx *mapreduce.Context, key string, values []any) {
	var idx, probes []sigEntry
	for _, v := range values {
		e := v.(sigEntry)
		if e.probe {
			probes = append(probes, e)
		} else {
			idx = append(idx, e)
		}
	}
	for _, ie := range idx {
		for _, pe := range probes {
			if ie.rid == pe.rid {
				continue
			}
			// Equal-length pairs match in both directions; keep one.
			if ie.l == pe.l && ie.rid > pe.rid {
				continue
			}
			ctx.Inc("massjoin.sig.matches", 1)
			if r.opt.Variant == MergeLight {
				bound := lightOverlapBound(ie.light, pe.light)
				if bound < r.opt.Fn.MinOverlap(r.opt.Theta, int(ie.l), int(pe.l)) {
					ctx.Inc("massjoin.light.pruned", 1)
					continue
				}
			}
			a, b := ie.rid, pe.rid
			if a > b {
				a, b = b, a
			}
			mapreduce.EmitPair(ctx, uint32(a), uint32(b), result.Candidate{})
		}
	}
}
