package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"fsjoin"
	"fsjoin/internal/bruteforce"
	"fsjoin/internal/result"
	"fsjoin/internal/similarity"
	"fsjoin/internal/tokens"
)

// sampleSize is the number of records whose result rows are compared with
// the brute-force oracle on each join workload; probeSampleSize the number
// of probes compared on probe_mixed.
const (
	sampleSize      = 200
	probeSampleSize = 500
)

// gate counts the operations and checks a run attempted and the ones that
// failed or returned a wrong answer; failed/attempted is the run's
// error_rate.
type gate struct {
	attempted, failed int64
	notes             []string
}

func (g *gate) check(ok bool, format string, args ...any) {
	g.attempted++
	if ok {
		return
	}
	g.failed++
	if len(g.notes) < 8 {
		g.notes = append(g.notes, fmt.Sprintf(format, args...))
	}
}

// digest fingerprints a join result; every rep of one run must agree.
func digest(pairs []fsjoin.Pair) uint64 {
	h := fnv.New64a()
	var b [32]byte
	for _, p := range pairs {
		binary.LittleEndian.PutUint64(b[0:], uint64(p.A))
		binary.LittleEndian.PutUint64(b[8:], uint64(p.B))
		binary.LittleEndian.PutUint64(b[16:], uint64(p.Common))
		binary.LittleEndian.PutUint64(b[24:], math.Float64bits(p.Similarity))
		h.Write(b[:])
	}
	return h.Sum64()
}

// sampleRIDs draws n distinct record ids below total from the seed.
func sampleRIDs(n, total int, seed int64) []int {
	if n > total {
		n = total
	}
	return rand.New(rand.NewSource(seed)).Perm(total)[:n]
}

// checkJoin is the join workloads' correctness gate. Soundness: every
// returned pair is recomputed from the generator's token ids. Completeness:
// the full result rows of sampleSize seeded records are compared with
// internal/bruteforce.
func checkJoin(g *gate, in *input, theta float64, pairs []fsjoin.Pair, seed int64) {
	other := in.idsS
	self := other == nil
	if self {
		other = in.idsR
	}
	fn := similarity.Jaccard
	got := make(map[[2]int]bool, len(pairs))
	for _, p := range pairs {
		ok := p.A >= 0 && p.A < in.idsR.Len() && p.B >= 0 && p.B < other.Len() && (!self || p.A < p.B)
		if ok {
			a, b := in.idsR.Records[p.A].Tokens, other.Records[p.B].Tokens
			c := tokens.Intersect(a, b)
			ok = c == p.Common && fn.AtLeast(c, len(a), len(b), theta) &&
				math.Abs(fn.Sim(c, len(a), len(b))-p.Similarity) < 1e-12 && !got[[2]int{p.A, p.B}]
		}
		g.check(ok, "unsound pair %+v", p)
		got[[2]int{p.A, p.B}] = true
	}

	var sample []tokens.Record
	for _, rid := range sampleRIDs(sampleSize, in.idsR.Len(), seed) {
		sample = append(sample, in.idsR.Records[rid])
	}
	missing := map[int32]int{}
	for _, p := range oracleRows(sample, other, theta) {
		a, b := int(p.A), int(p.B)
		if self && a == b {
			continue
		}
		if self && a > b {
			a, b = b, a
		}
		if !got[[2]int{a, b}] {
			missing[p.A]++
		}
	}
	for _, rec := range sample {
		g.check(missing[rec.RID] == 0, "record %d: %d oracle pairs missing from the result", rec.RID, missing[rec.RID])
	}
}

// oracleRows returns, for each probe record, every record of c within
// Jaccard theta of it, as internal/bruteforce finds them. To keep the scan
// affordable bruteforce is handed only the records whose length lies in
// [θ·l, l/θ] for a probe of length l; no shorter or longer set can qualify.
func oracleRows(probes []tokens.Record, c *tokens.Collection, theta float64) []result.Pair {
	byLen := append([]tokens.Record(nil), c.Records...)
	sort.SliceStable(byLen, func(i, j int) bool { return byLen[i].Len() < byLen[j].Len() })
	var out []result.Pair
	for _, p := range probes {
		l := float64(p.Len())
		lo := sort.Search(len(byLen), func(i int) bool { return float64(byLen[i].Len()) >= theta*l-1e-9 })
		hi := sort.Search(len(byLen), func(i int) bool { return float64(byLen[i].Len()) > l/theta+1e-9 })
		out = append(out, bruteforce.Join(&tokens.Collection{Records: []tokens.Record{p}},
			&tokens.Collection{Records: byLen[lo:hi]}, similarity.Jaccard, theta)...)
	}
	return out
}

// checkProbes compares the matches the index returns for the given probe
// sets with a brute-force scan of every live record.
func checkProbes(g *gate, ix *fsjoin.Index, live *tokens.Collection, probes []tokens.Record, sets [][]string, theta float64) {
	want := map[[2]int32]int{}
	for _, p := range oracleRows(probes, live, theta) {
		want[[2]int32{p.A, p.B}] = p.Common
	}
	found := 0
	for i, probe := range probes {
		ms := ix.Probe(sets[i])
		ok := true
		for _, m := range ms {
			if c, hit := want[[2]int32{probe.RID, int32(m.RID)}]; !hit || c != m.Common {
				ok = false
			}
		}
		found += len(ms)
		g.check(ok, "probe %d: a match is not in the oracle", probe.RID)
	}
	g.check(found == len(want), "probes returned %d matches, oracle has %d", found, len(want))
}
