package fsjoin

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"fsjoin/internal/bruteforce"
	"fsjoin/internal/mapreduce"
	"fsjoin/internal/result"
)

// rsExactConfigs is every exact algorithm × kernel combination that
// supports R-S joins; ApproxLSHJoin is tested separately (precision-only).
var rsExactConfigs = []struct {
	label string
	opt   Options
}{
	{"fs-join/prefix", Options{Algorithm: FSJoin, JoinMethod: PrefixJoin}},
	{"fs-join/index", Options{Algorithm: FSJoin, JoinMethod: IndexJoin}},
	{"fs-join/loop", Options{Algorithm: FSJoin, JoinMethod: LoopJoin}},
	{"fs-join-v", Options{Algorithm: FSJoinV}},
	{"ridpairs-ppjoin", Options{Algorithm: RIDPairsPPJoin}},
	{"v-smart-join", Options{Algorithm: VSmartJoin}},
}

// formatInternalPairs renders internal oracle pairs in the same exact
// format as formatPairs, so R-S runs are compared to the brute-force
// reference bit-for-bit (including the float similarity).
func formatInternalPairs(pairs []result.Pair) []string {
	out := make([]string, len(pairs))
	for i, p := range pairs {
		out[i] = fmt.Sprintf("%d %d %d %s", p.A, p.B, p.Common, formatSim(p.Sim))
	}
	return out
}

// genRSRelations derives a random R-S join instance from rng: relation
// sizes 0–9 (empty relations included), per-record empty sets, duplicate
// records copied within and across relations, tokens drawn with
// replacement (duplicate tokens within a set), and — for a quarter of the
// instances — disjoint R and S vocabularies.
func genRSRelations(rng *rand.Rand) (r, s [][]string) {
	shared := rng.Intn(4) != 0
	gen := func(n int, prefix string, other [][]string) [][]string {
		out := make([][]string, 0, n)
		for i := 0; i < n; i++ {
			pool := out
			if shared {
				pool = append(append([][]string{}, other...), out...)
			}
			switch {
			case rng.Intn(8) == 0:
				out = append(out, nil) // empty set
			case len(pool) > 0 && rng.Intn(4) == 0:
				out = append(out, pool[rng.Intn(len(pool))]) // duplicate record
			default:
				set := make([]string, rng.Intn(7)+1)
				for j := range set {
					set[j] = fmt.Sprintf("%s%d", prefix, rng.Intn(18))
				}
				out = append(out, set)
			}
		}
		return out
	}
	rp, sp := "w", "w"
	if !shared {
		rp, sp = "r", "s"
	}
	r = gen(rng.Intn(10), rp, nil)
	s = gen(rng.Intn(10), sp, r)
	return r, s
}

// TestRSJoinDifferentialOracle is the R-S acceptance property: for random
// instances (random relation sizes, vocabularies, duplicates, empties),
// random similarity function and random threshold, every exact algorithm
// must reproduce the brute-force cross-join bit-for-bit, and the approx
// join must report only oracle pairs. Overlapping rid spaces are exercised
// by construction — both relations number their records from zero.
func TestRSJoinDifferentialOracle(t *testing.T) {
	thetas := []float64{0.3, 0.5, 0.7, 0.85, 1.0}
	fns := []Similarity{Jaccard, Dice, Cosine}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rSets, sSets := genRSRelations(rng)
		fnPub := fns[rng.Intn(len(fns))]
		theta := thetas[rng.Intn(len(thetas))]
		d := NewDictionary()
		rc, sc := d.NewCollection(rSets), d.NewCollection(sSets)
		fn, err := fnPub.internal()
		if err != nil {
			t.Fatal(err)
		}
		want := formatInternalPairs(bruteforce.Join(rc.t, sc.t, fn, theta))
		for _, cfg := range rsExactConfigs {
			opt := cfg.opt
			opt.Threshold = theta
			opt.Function = fnPub
			opt.Nodes = 2
			opt.LocalParallelism = 1
			res, err := rc.Join(sc, opt)
			if err != nil {
				t.Errorf("seed %d %s (fn %v θ %v): %v", seed, cfg.label, fnPub, theta, err)
				return false
			}
			got := formatPairs(res.Pairs)
			if len(got) != len(want) {
				t.Errorf("seed %d %s (fn %v θ %v): %d pairs, oracle has %d\n got %v\nwant %v",
					seed, cfg.label, fnPub, theta, len(got), len(want), got, want)
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("seed %d %s (fn %v θ %v): pair %d = %q, oracle %q",
						seed, cfg.label, fnPub, theta, i, got[i], want[i])
					return false
				}
			}
			// The rs.pairs.* counters must cover the result: every emitted
			// pair was counted (ridpairs counts pre-dedup, so ≥), and
			// emission never exceeds candidacy.
			if res.Stats.RSPairs < int64(len(res.Pairs)) || res.Stats.RSCandidates < res.Stats.RSPairs {
				t.Errorf("seed %d %s: rs counters inconsistent: candidates=%d emitted=%d pairs=%d",
					seed, cfg.label, res.Stats.RSCandidates, res.Stats.RSPairs, len(res.Pairs))
				return false
			}
		}
		if fnPub == Jaccard {
			res, err := rc.Join(sc, Options{
				Threshold: theta, Algorithm: ApproxLSHJoin, Nodes: 2,
				LocalParallelism: 1, Seed: seed,
			})
			if err != nil {
				t.Errorf("seed %d approx (θ %v): %v", seed, theta, err)
				return false
			}
			oracle := make(map[string]bool, len(want))
			for _, line := range want {
				oracle[line] = true
			}
			for _, line := range formatPairs(res.Pairs) {
				if !oracle[line] {
					t.Errorf("seed %d approx (θ %v): false positive %q", seed, theta, line)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestRSJoinSelfEquivalence pins the documented RSJoin(R, R) semantics
// (DESIGN.md §12) against SelfJoin: joining a relation with itself must
// yield exactly the self-join pairs in both orientations plus the (i, i)
// diagonal for every non-empty record, with bit-identical similarities —
// for every algorithm × kernel at parallelism 1 and 4. ApproxLSHJoin with
// a fixed Seed hashes both sides identically, so the equivalence holds for
// it too (relative to its own self-join candidates).
func TestRSJoinSelfEquivalence(t *testing.T) {
	texts := corpus(40, 5)
	configs := append(append([]struct {
		label string
		opt   Options
	}{}, rsExactConfigs...), struct {
		label string
		opt   Options
	}{"approx-lsh", Options{Algorithm: ApproxLSHJoin, Seed: 99}})
	for _, cfg := range configs {
		for _, par := range []int{1, 4} {
			opt := cfg.opt
			opt.Threshold = 0.7
			opt.Nodes = 3
			opt.LocalParallelism = par
			label := fmt.Sprintf("%s par %d", cfg.label, par)

			self, err := SelfJoinStrings(texts, opt)
			if err != nil {
				t.Fatalf("%s: self-join: %v", label, err)
			}
			if len(self.Pairs) == 0 {
				t.Fatalf("%s: self-join found nothing — corpus too sparse", label)
			}
			d := NewDictionary()
			r := d.NewTextCollection(texts)
			s := d.NewTextCollection(texts)
			rs, err := RSJoin(r, s, opt)
			if err != nil {
				t.Fatalf("%s: rs join: %v", label, err)
			}

			fn, err := opt.Function.internal()
			if err != nil {
				t.Fatal(err)
			}
			var want []Pair
			for _, rec := range r.t.Records {
				if l := len(rec.Tokens); l > 0 {
					want = append(want, Pair{A: int(rec.RID), B: int(rec.RID), Common: l, Similarity: fn.Sim(l, l, l)})
				}
			}
			for _, p := range self.Pairs {
				want = append(want, p, Pair{A: p.B, B: p.A, Common: p.Common, Similarity: p.Similarity})
			}
			sort.Slice(want, func(i, j int) bool {
				if want[i].A != want[j].A {
					return want[i].A < want[j].A
				}
				return want[i].B < want[j].B
			})
			diffPairs(t, label, formatPairs(rs.Pairs), formatPairs(want))
			if rs.Stats.RSPairs < int64(len(rs.Pairs)) {
				t.Fatalf("%s: Stats.RSPairs = %d for %d pairs", label, rs.Stats.RSPairs, len(rs.Pairs))
			}
			if self.Stats.RSPairs != 0 || self.Stats.RSCandidates != 0 {
				t.Fatalf("%s: self-join reported rs counters: %+v", label, self.Stats)
			}
		}
	}
}

// TestRSJoinEmptyRelations: an empty relation on either (or both) sides is
// a valid instance with an empty result, for every algorithm.
func TestRSJoinEmptyRelations(t *testing.T) {
	d := NewDictionary()
	full := d.NewCollection([][]string{{"a", "b"}, {"c"}})
	empty := d.NewCollection(nil)
	cases := []struct {
		name string
		r, s *Collection
	}{
		{"emptyS", full, empty},
		{"emptyR", empty, full},
		{"emptyBoth", empty, empty},
	}
	for _, cfg := range rsExactConfigs {
		for _, c := range cases {
			res, err := c.r.Join(c.s, Options{Threshold: 0.5, Algorithm: cfg.opt.Algorithm,
				JoinMethod: cfg.opt.JoinMethod, Nodes: 2})
			if err != nil {
				t.Fatalf("%s %s: %v", cfg.label, c.name, err)
			}
			if len(res.Pairs) != 0 {
				t.Fatalf("%s %s: pairs from empty relation: %v", cfg.label, c.name, res.Pairs)
			}
		}
	}
	for _, c := range cases {
		res, err := c.r.Join(c.s, Options{Threshold: 0.5, Algorithm: ApproxLSHJoin, Nodes: 2})
		if err != nil {
			t.Fatalf("approx %s: %v", c.name, err)
		}
		if len(res.Pairs) != 0 {
			t.Fatalf("approx %s: pairs from empty relation: %v", c.name, res.Pairs)
		}
	}
}

// TestRSJoinSpillEquivalence forces every R-S-capable algorithm through
// the out-of-core shuffle (a memory budget small enough to provably
// spill) and demands pairs identical to the unbounded run. This pins the
// R-S spill wire formats — origin-tagged postings, signatures and tagged
// records round-trip through the spill codecs, not just through memory —
// and every spill directory must drain to empty.
func TestRSJoinSpillEquivalence(t *testing.T) {
	texts := corpus(160, 7)
	configs := append(append([]struct {
		label string
		opt   Options
	}{}, rsExactConfigs...), struct {
		label string
		opt   Options
	}{"approx-lsh", Options{Algorithm: ApproxLSHJoin, Seed: 99}})
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.label, func(t *testing.T) {
			opt := cfg.opt
			opt.Threshold = 0.7
			opt.Nodes = 3
			opt.LocalParallelism = 4
			want, err := runMatrixJoin(texts, opt, true)
			if err != nil {
				t.Fatalf("unbounded run: %v", err)
			}
			if len(want.Pairs) == 0 {
				t.Fatal("unbounded run found no pairs — corpus too sparse to prove anything")
			}
			dir := t.TempDir()
			opt.MemoryBudget = 1 << 10
			opt.SpillDir = dir
			got, err := runMatrixJoin(texts, opt, true)
			if err != nil {
				t.Fatalf("budgeted run: %v", err)
			}
			if got.Stats.SpillRuns < 2 {
				t.Fatalf("budgeted run spilled only %d runs — budget not binding", got.Stats.SpillRuns)
			}
			if !reflect.DeepEqual(got.Pairs, want.Pairs) {
				t.Fatalf("budgeted pairs differ (%d vs %d)", len(got.Pairs), len(want.Pairs))
			}
			if got.Stats.RSPairs != want.Stats.RSPairs || got.Stats.RSCandidates != want.Stats.RSCandidates {
				t.Fatalf("rs counters drifted: (%d,%d) vs (%d,%d)",
					got.Stats.RSCandidates, got.Stats.RSPairs,
					want.Stats.RSCandidates, want.Stats.RSPairs)
			}
			noSpillFiles(t, cfg.label, dir)
		})
	}
}

// TestRSJoinQuarantineKeysDistinguishRelations: with overlapping rid
// spaces, skip-mode quarantine reports must still identify which relation
// a poisoned record came from. Draining every record of the filtering
// stage must produce one report per record whose key decodes to a unique
// (origin, rid) — R#i and S#i never alias (the OriginKey encoding).
func TestRSJoinQuarantineKeysDistinguishRelations(t *testing.T) {
	const n = 12
	texts := corpus(2*n, 13)
	dict := NewDictionary()
	r := dict.NewTextCollection(texts[:n])
	s := dict.NewTextCollection(texts[n:])

	var quarantined []QuarantinedRecord
	opt := Options{Threshold: 0.7, Nodes: 3, LocalParallelism: 1}
	opt.Fault.injector = recordPoisoner{job: "filtering", allTasks: true}
	opt.Fault.MaxAttempts = 2
	opt.Fault.SkipBadRecords = true
	opt.Fault.MaxSkippedRecords = 1000
	opt.Fault.OnQuarantine = func(q QuarantinedRecord) { quarantined = append(quarantined, q) }
	res, err := r.Join(s, opt)
	if err != nil {
		t.Fatalf("poisoned rs join with skip enabled: %v", err)
	}
	if len(res.Pairs) != 0 {
		t.Fatalf("every input record quarantined, yet %d pairs emitted", len(res.Pairs))
	}
	if len(quarantined) != 2*n {
		t.Fatalf("%d records quarantined, want all %d", len(quarantined), 2*n)
	}
	seen := map[[2]uint32]bool{}
	var origins [2]int
	for _, q := range quarantined {
		origin, rid := mapreduce.DecodeOriginKey(q.Key)
		if origin > 1 || rid >= n {
			t.Fatalf("quarantine key %q decoded to origin %d rid %d", q.Key, origin, rid)
		}
		id := [2]uint32{uint32(origin), rid}
		if seen[id] {
			t.Fatalf("duplicate quarantine identity origin %d rid %d", origin, rid)
		}
		seen[id] = true
		origins[origin]++
	}
	if origins[0] != n || origins[1] != n {
		t.Fatalf("quarantine origins R=%d S=%d, want %d each", origins[0], origins[1], n)
	}
}

// --- Golden R-S fixture ---------------------------------------------------
//
// The committed R-S fixture joins a query relation (rs_queries.txt) against
// the self-join corpus (texts.txt) and pins the exact oriented pair set in
// rs_pairs.txt. Regenerate with:
//
//	go test -run TestGoldenRS -update-golden .

const (
	goldenRSQueries = "testdata/golden/rs_queries.txt"
	goldenRSPairs   = "testdata/golden/rs_pairs.txt"
)

func loadGoldenRS(t *testing.T) (queries, corpus, pairs []string) {
	t.Helper()
	if *updateGolden {
		writeGoldenRS(t)
	}
	read := func(path string) []string {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update-golden to generate)", err)
		}
		return strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	}
	queries = read(goldenRSQueries)
	corpus = read(goldenRSTexts(t))
	for _, line := range read(goldenRSPairs) {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			pairs = append(pairs, line)
		}
	}
	return queries, corpus, pairs
}

// goldenRSTexts returns the S-side corpus path, generating the shared
// self-join corpus fixture first if it is absent.
func goldenRSTexts(t *testing.T) string {
	t.Helper()
	if _, err := os.Stat(goldenTexts); os.IsNotExist(err) && *updateGolden {
		writeGolden(t)
	}
	return goldenTexts
}

// writeGoldenRS regenerates the R-S fixture: the query relation (only if
// absent, keeping the committed dataset stable) and the expected pairs
// from a sequential fault-free FS-Join reference run, cross-checked
// against the brute-force oracle before anything is written.
func writeGoldenRS(t *testing.T) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(goldenRSQueries), 0o755); err != nil {
		t.Fatal(err)
	}
	read := func(path string) []string {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	}
	sTexts := read(goldenRSTexts(t))
	if _, err := os.Stat(goldenRSQueries); os.IsNotExist(err) {
		// Queries are light perturbations of corpus lines (kept verbatim,
		// one word dropped, or one word appended), so the fixture has a
		// dense band of cross pairs around the threshold.
		rng := rand.New(rand.NewSource(9))
		queries := make([]string, 24)
		for i := range queries {
			words := strings.Fields(sTexts[(i*5)%len(sTexts)])
			switch rng.Intn(3) {
			case 0: // verbatim: an exact cross match
			case 1:
				if len(words) > 1 {
					words = words[:len(words)-1]
				}
			default:
				words = append(words, "omega")
			}
			queries[i] = strings.Join(words, " ")
		}
		if err := os.WriteFile(goldenRSQueries, []byte(strings.Join(queries, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	queries := read(goldenRSQueries)

	d := NewDictionary()
	rc := d.NewTextCollection(queries)
	sc := d.NewTextCollection(sTexts)
	res, err := rc.Join(sc, Options{Threshold: goldenTheta, LocalParallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) < 8 {
		t.Fatalf("reference run found only %d pairs — fixture too sparse to pin anything", len(res.Pairs))
	}
	fn, err := Jaccard.internal()
	if err != nil {
		t.Fatal(err)
	}
	oracle := formatInternalPairs(bruteforce.Join(rc.t, sc.t, fn, goldenTheta))
	diffPairs(t, "golden rs reference vs oracle", formatPairs(res.Pairs), oracle)

	var sb strings.Builder
	fmt.Fprintf(&sb, "# fs-join r-s golden pairs: theta=%v, R=rs_queries.txt S=texts.txt, one \"A B Common Sim\" per line\n", goldenTheta)
	for _, line := range formatPairs(res.Pairs) {
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
	if err := os.WriteFile(goldenRSPairs, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenRS runs every exact R-S configuration at several parallelism
// levels against the committed fixture and, independently, re-derives the
// expected pairs from the brute-force oracle — so the fixture pins both
// the algorithms and the oracle to one byte-exact answer.
func TestGoldenRS(t *testing.T) {
	queries, sTexts, want := loadGoldenRS(t)
	d := NewDictionary()
	rc := d.NewTextCollection(queries)
	sc := d.NewTextCollection(sTexts)
	fn, err := Jaccard.internal()
	if err != nil {
		t.Fatal(err)
	}
	diffPairs(t, "oracle", formatInternalPairs(bruteforce.Join(rc.t, sc.t, fn, goldenTheta)), want)

	for _, cfg := range rsExactConfigs {
		for _, par := range []int{1, 4, 0} {
			opt := cfg.opt
			opt.Threshold = goldenTheta
			opt.LocalParallelism = par
			res, err := JoinStrings(queries, sTexts, opt)
			if err != nil {
				t.Fatalf("%s par %d: %v", cfg.label, par, err)
			}
			diffPairs(t, fmt.Sprintf("%s par %d", cfg.label, par), formatPairs(res.Pairs), want)
		}
	}
}

// TestGoldenRSApproxPrecision: the approximate R-S join may miss pairs but
// must never report one outside the golden set, and scores must match
// bit-for-bit.
func TestGoldenRSApproxPrecision(t *testing.T) {
	queries, sTexts, want := loadGoldenRS(t)
	golden := make(map[string]bool, len(want))
	for _, line := range want {
		golden[line] = true
	}
	res, err := JoinStrings(queries, sTexts, Options{
		Threshold: goldenTheta, Algorithm: ApproxLSHJoin, LocalParallelism: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range formatPairs(res.Pairs) {
		if !golden[line] {
			t.Fatalf("approx rs join reported %q, not in the golden set", line)
		}
	}
	if len(res.Pairs) == 0 {
		t.Fatal("approx rs join found nothing — fixture defeats the S-curve entirely")
	}
}
